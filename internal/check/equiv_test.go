// Differential equivalence fixtures for the dense-ID representation
// refactor: sweep summaries and checker reports were captured while the
// runtimes still kept per-run state in pointer-keyed maps, and these
// tests pin the flat ID-indexed representation to the exact same
// observable output — DeepEqual on stats.Summary, byte-identical on
// Report.Render — across the app × runtime matrix.
//
// Regenerate with
//
//	go test ./internal/check -run TestEquiv -update-equiv
//
// only when an intentional behavior change (new charge, new counter)
// moves the simulation itself; a representation-only change must never
// need it.

package check

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/stats"
)

var updateEquiv = flag.Bool("update-equiv", false, "regenerate testdata/equiv fixtures")

var equivKinds = []experiments.RuntimeKind{
	experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
}

// equivSweepApps is the sweep matrix. The factories rebuild the app per
// sweep, so every cell exercises analysis + freeze + attach + pooled runs.
var equivSweepApps = []struct {
	name    string
	factory experiments.AppFactory
}{
	{"dma", dmaFactory},
	{"temp", tempFactory},
	{"lea", func() (*apps.Bench, error) { return apps.NewLEAApp(apps.DefaultLEAConfig()) }},
	{"fir", func() (*apps.Bench, error) { return apps.NewFIRApp(apps.DefaultFIRConfig()) }},
	{"weather", func() (*apps.Bench, error) { return apps.NewWeatherApp(apps.DefaultWeatherConfig()) }},
}

// equivSweepCell is one fixture entry: the aggregate of a pooled
// 25-seed timer-driven sweep.
type equivSweepCell struct {
	App     string
	Runtime string
	Summary stats.Summary
}

func equivSweepConfig() experiments.Config {
	return experiments.Config{Runs: 25, BaseSeed: 11, Workers: 2}
}

const equivSweepPath = "testdata/equiv/sweep.json"

// quickEquivCell reports whether the cell stays in the -short subset.
func quickEquivCell(app string, kind string) bool {
	if app != "dma" && app != "temp" {
		return false
	}
	return kind == experiments.EaseIO.String() || kind == experiments.Alpaca.String()
}

func TestEquivSweepSummaries(t *testing.T) {
	if *updateEquiv {
		var cells []equivSweepCell
		for _, a := range equivSweepApps {
			for _, kind := range equivKinds {
				sum, err := experiments.RunMany(equivSweepConfig(), a.factory, kind)
				if err != nil {
					t.Fatalf("%s/%s: %v", a.name, kind, err)
				}
				cells = append(cells, equivSweepCell{App: a.name, Runtime: kind.String(), Summary: sum})
			}
		}
		writeEquivFixture(t, equivSweepPath, mustMarshalIndent(t, cells))
		return
	}

	data, err := os.ReadFile(equivSweepPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-equiv): %v", err)
	}
	var cells []equivSweepCell
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatal(err)
	}
	factories := make(map[string]experiments.AppFactory, len(equivSweepApps))
	for _, a := range equivSweepApps {
		factories[a.name] = a.factory
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.App+"/"+cell.Runtime, func(t *testing.T) {
			if testing.Short() && !quickEquivCell(cell.App, cell.Runtime) {
				t.Skip("full matrix runs without -short")
			}
			kind, err := experiments.ParseRuntimeKind(cell.Runtime)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := experiments.RunMany(equivSweepConfig(), factories[cell.App], kind)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sum, cell.Summary) {
				t.Errorf("sweep summary diverged from recorded representation:\n got %+v\nwant %+v",
					sum, cell.Summary)
			}
		})
	}
}

// equivCheckCells mirrors the TestReplayModesByteIdentical matrix: the
// checker is the most state-sensitive consumer (checkpoints, suffix
// replay, outcome hashing), so its rendered reports pin the whole
// device+runtime state representation at once.
func equivCheckCells() []struct {
	name    string
	factory experiments.AppFactory
	kind    experiments.RuntimeKind
} {
	var cells []struct {
		name    string
		factory experiments.AppFactory
		kind    experiments.RuntimeKind
	}
	for _, k := range equivKinds {
		cells = append(cells, struct {
			name    string
			factory experiments.AppFactory
			kind    experiments.RuntimeKind
		}{"fig6_" + k.String(), Fig6Bench, k})
		cells = append(cells, struct {
			name    string
			factory experiments.AppFactory
			kind    experiments.RuntimeKind
		}{"temp_" + k.String(), tempFactory, k})
		cells = append(cells, struct {
			name    string
			factory experiments.AppFactory
			kind    experiments.RuntimeKind
		}{"dma_" + k.String(), dmaFactory, k})
	}
	return cells
}

func TestEquivCheckReports(t *testing.T) {
	cfg := Config{Exhaustive: true, Workers: 2}
	for _, cell := range equivCheckCells() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			if testing.Short() && !*updateEquiv && cell.name != "fig6_EaseIO" {
				t.Skip("full matrix runs without -short")
			}
			rep, err := Run(context.Background(), cell.factory, cell.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "equiv", "check_"+cell.name+".txt")
			if *updateEquiv {
				writeEquivFixture(t, path, []byte(rep.Render()))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-equiv): %v", err)
			}
			if got := rep.Render(); got != string(want) {
				t.Errorf("check report diverged from recorded representation:\n got:\n%s\nwant:\n%s",
					got, want)
			}
		})
	}
}

// TestEquivCheckReportsAdaptive pins what a request for the retired
// adaptive (grid + bisection) exploration now gets: the same config
// without Exhaustive — the former adaptive default — must render the
// exhaustive fixtures byte for byte, because every check replays every
// candidate.
func TestEquivCheckReportsAdaptive(t *testing.T) {
	cfg := Config{Workers: 2}
	for _, cell := range equivCheckCells() {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			if testing.Short() && cell.name != "fig6_Alpaca" {
				t.Skip("full matrix runs without -short")
			}
			rep, err := Run(context.Background(), cell.factory, cell.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "equiv", "check_"+cell.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); got != string(want) {
				t.Errorf("check report without Exhaustive differs from the exhaustive fixture:\n got:\n%s\nwant:\n%s",
					got, want)
			}
		})
	}
}

func mustMarshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func writeEquivFixture(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(data))
}
