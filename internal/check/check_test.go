package check

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"easeio/internal/apps"
	"easeio/internal/core"
	"easeio/internal/experiments"
	"easeio/internal/frontend"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/task"
)

func dmaFactory() (*apps.Bench, error)  { return apps.NewDMAApp(apps.DefaultDMAConfig()) }
func tempFactory() (*apps.Bench, error) { return apps.NewTempApp(apps.DefaultTempConfig()) }

// TestCutRecorderEnumeratesBoundaries checks the golden pass sees every
// charge-slice boundary: strictly increasing on-times ending exactly at
// the run's total on-time.
func TestCutRecorderEnumeratesBoundaries(t *testing.T) {
	bench, err := Fig6Bench()
	if err != nil {
		t.Fatal(err)
	}
	rec := &cutRecorder{}
	sess := kernel.NewSession(core.New(), bench.App, power.Continuous{})
	sess.Cuts = rec
	run, err := sess.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.cuts) == 0 {
		t.Fatal("golden pass recorded no cut points")
	}
	for i := 1; i < len(rec.cuts); i++ {
		if rec.cuts[i] <= rec.cuts[i-1] {
			t.Fatalf("cuts[%d] = %v not after cuts[%d] = %v", i, rec.cuts[i], i-1, rec.cuts[i-1])
		}
	}
	if last := rec.cuts[len(rec.cuts)-1]; last != run.OnTime {
		t.Errorf("final cut %v != golden on-time %v", last, run.OnTime)
	}
}

// TestValidateFailures pins the -k bounds surface shared by the CLI, the
// service and the fleet: only depths 1..MaxFailures are schedulable.
func TestValidateFailures(t *testing.T) {
	cases := []struct {
		k       int
		wantErr string
	}{
		{k: 1},
		{k: 2},
		{k: MaxFailures},
		{k: 0, wantErr: "check: failure depth 0 out of range [1, 4]"},
		{k: -1, wantErr: "check: failure depth -1 out of range [1, 4]"},
		{k: MaxFailures + 1, wantErr: "check: failure depth 5 out of range [1, 4]"},
	}
	for _, c := range cases {
		err := ValidateFailures(c.k)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("k=%d rejected: %v", c.k, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("k=%d accepted", c.k)
		case c.wantErr != "" && err.Error() != c.wantErr:
			t.Errorf("k=%d: error = %q, want %q", c.k, err, c.wantErr)
		}
	}
}

// TestFig6ExhaustivePass is the checker's core soundness claim on its
// deterministic scenario: under full EaseIO every single failure point
// reproduces the golden state.
func TestFig6ExhaustivePass(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO,
		Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GoldenCorrect {
		t.Fatal("golden continuous run must satisfy CheckOutput")
	}
	if !rep.Passed() {
		t.Fatalf("divergences under full EaseIO:\n%s", rep.Render())
	}
	if rep.Explored != rep.Candidates || rep.Pruned != 0 {
		t.Errorf("exhaustive mode explored %d of %d (pruned %d)",
			rep.Explored, rep.Candidates, rep.Pruned)
	}
	if !strings.Contains(rep.Render(), "PASS") {
		t.Errorf("Render misses the PASS verdict:\n%s", rep.Render())
	}
}

// TestSeededBugDetected is the checker's end-to-end detection test: with
// regional privatization disabled (the paper's §4.4 ablation) the Figure 6
// WAR scenario must diverge, and the report must pin a minimal failing
// schedule inside the golden run.
func TestSeededBugDetected(t *testing.T) {
	broken := func() kernel.Hooks {
		cfg := core.DefaultConfig()
		cfg.RegionalPrivatization = false
		return core.NewWithConfig(cfg)
	}
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO,
		Config{Workers: 2, NewRuntime: broken, Label: "EaseIO/NoRegions"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatalf("seeded bug not detected:\n%s", rep.Render())
	}
	if len(rep.Minimal) != 1 {
		t.Fatalf("Minimal = %v, want a single-failure schedule", rep.Minimal)
	}
	at := rep.Minimal[0]
	if at <= 0 || at > rep.GoldenOnTime {
		t.Errorf("minimal failing point %v outside (0, %v]", at, rep.GoldenOnTime)
	}
	if at != rep.Divergences[0].At {
		t.Errorf("Minimal[0] = %v, want earliest divergence %v", at, rep.Divergences[0].At)
	}
	if rep.Runtime != "EaseIO/NoRegions" {
		t.Errorf("report runtime = %q, want the configured label", rep.Runtime)
	}
	r := rep.Render()
	if !strings.Contains(r, "FAIL") || !strings.Contains(r, "minimal failing schedule") {
		t.Errorf("Render misses the failure verdict:\n%s", r)
	}

	// The reported schedule must actually reproduce the divergence when
	// replayed directly — the report is actionable, not just a flag.
	bench, err := Fig6Bench()
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(power.NewSchedule(rep.Minimal...), 0)
	rt := broken()
	if err := kernel.RunApp(dev, rt, bench.App); err != nil {
		t.Fatal(err)
	}
	if dev.Run.Correct {
		t.Error("replaying the minimal schedule did not reproduce the divergence")
	}
}

// TestDeterministicAcrossWorkers: same blueprint and config must render
// byte-identically on one worker and many — results land by candidate
// index, never by scheduling.
func TestDeterministicAcrossWorkers(t *testing.T) {
	a, err := Run(context.Background(), tempFactory, experiments.EaseIO, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), tempFactory, experiments.EaseIO, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Errorf("workers=1 vs 4 reports differ:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

// TestMatrixCleanRuntimes: the shipped uni-task apps must pass
// exhaustively under every compared runtime — these are exactly the
// configurations the paper reports as always-correct.
func TestMatrixCleanRuntimes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix check is the long pass")
	}
	targets := []Target{
		{Name: "dma", New: dmaFactory},
		{Name: "temp", New: tempFactory},
	}
	kinds := []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	}
	reports, err := Matrix(context.Background(), targets, kinds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(targets)*len(kinds) {
		t.Fatalf("%d reports, want %d", len(reports), len(targets)*len(kinds))
	}
	for _, rep := range reports {
		if !rep.Passed() {
			t.Errorf("%s under %s diverged:\n%s", rep.App, rep.Runtime, rep.Render())
		}
	}
	m := RenderMatrix(reports)
	if !strings.Contains(m, "dma") || !strings.Contains(m, "JustDo") {
		t.Errorf("matrix render misses rows or columns:\n%s", m)
	}
}

// TestFig6BaselinesDiverge: the checker must rediscover the paper's
// motivating bug — Alpaca and InK do not privatize the WAR dependency
// flowing through the Single-semantics DMA, so the Figure 6 scenario has
// failure points that corrupt a[0]. EaseIO and the logging comparator
// survive every point (previous tests); the baselines must not.
func TestFig6BaselinesDiverge(t *testing.T) {
	for _, kind := range []experiments.RuntimeKind{experiments.Alpaca, experiments.InK} {
		rep, err := Run(context.Background(), Fig6Bench, kind, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed() {
			t.Errorf("fig6 under %s passed; the paper's Figure 6 bug should manifest", kind)
			continue
		}
		if d := rep.Divergences[0]; d.Kind != "memory" || !strings.Contains(d.Detail, "a[0]") {
			t.Errorf("%s: first divergence %s (%s), want the a[0] WAR corruption",
				kind, d.Kind, d.Detail)
		}
	}
}

// TestFig6JustDoPasses covers the checkpointing comparator on the
// deterministic scenario (the kinds the matrix test skips in -short).
func TestFig6JustDoPasses(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.JustDo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fig6 under JustDo diverged:\n%s", rep.Render())
	}
}

// TestRunCancellation: a cancelled context stops exploration and returns
// the context error with a partial report.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Fig6Bench, experiments.EaseIO, Config{Workers: 1})
	if err == nil {
		t.Fatal("cancelled context must surface an error")
	}
	if rep == nil {
		t.Fatal("cancellation must still return the partial report")
	}
	if rep.Explored != 0 {
		t.Errorf("%d points explored under a dead context", rep.Explored)
	}
}

// TestProgressReachesPlanned: the progress hook must report a final count
// equal to the explored total.
func TestProgressReachesPlanned(t *testing.T) {
	var last, lastPlanned int
	cfg := Config{Workers: 1}
	cfg.Progress = func(explored, planned int) { last, lastPlanned = explored, planned }
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last != rep.Explored || lastPlanned != rep.Explored {
		t.Errorf("progress ended at %d/%d, want %d/%d",
			last, lastPlanned, rep.Explored, rep.Explored)
	}
}

// TestOffDurationRecorded: a custom recharge duration flows into the
// report and the replays still pass.
func TestOffDurationRecorded(t *testing.T) {
	rep, err := Run(context.Background(), Fig6Bench, experiments.EaseIO,
		Config{Off: 250 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Off != 250*time.Microsecond {
		t.Errorf("report off = %v", rep.Off)
	}
	if !rep.Passed() {
		t.Errorf("fig6 diverged with a 250µs recharge:\n%s", rep.Render())
	}
}

// TestCutRangeShardsMergeExhaustive pins the distributed checker's merge
// contract: in exhaustive mode, splitting [0, Candidates) into cut
// ranges, running each range as its own checker job, and assembling the
// concatenated results with Plan.Report — the function the fleet's merge
// calls — reproduces the unsharded report byte for byte.
func TestCutRangeShardsMergeExhaustive(t *testing.T) {
	for _, kind := range allKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Workers: 2}
			full, err := Run(context.Background(), Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}

			plan, err := Golden(Fig6Bench, kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Candidates != full.Candidates {
				t.Fatalf("plan counts %d candidates, full run %d", plan.Candidates, full.Candidates)
			}

			for _, nShards := range []int{2, 3} {
				var explored int
				var divs []Divergence
				for s := 0; s < nShards; s++ {
					scfg := cfg
					scfg.CutLo = s * plan.Candidates / nShards
					scfg.CutHi = (s + 1) * plan.Candidates / nShards
					part, err := Run(context.Background(), Fig6Bench, kind, scfg)
					if err != nil {
						t.Fatal(err)
					}
					if part.Explored != scfg.CutHi-scfg.CutLo {
						t.Errorf("shard %d explored %d of %d points", s, part.Explored, scfg.CutHi-scfg.CutLo)
					}
					if part.Pruned != 0 {
						t.Errorf("exhaustive shard %d pruned %d points", s, part.Pruned)
					}
					explored += part.Explored
					divs = append(divs, part.Divergences...)
				}
				merged := plan.Report(explored, divs, SubtreeReport{})
				if merged.Render() != full.Render() {
					t.Errorf("%d-shard merge differs from unsharded report:\n--- merged ---\n%s--- full ---\n%s",
						nShards, merged.Render(), full.Render())
				}
			}
		})
	}
}

// reexecBoom builds a one-task app whose task panics when it runs again
// after a power failure: the golden pass completes, every replay panics.
func reexecBoom() (*apps.Bench, error) {
	a := task.NewApp("reexec-boom")
	a.AddTask("work", func(e task.Exec) {
		// The front-end's analysis pass runs the body on its own Exec.
		if c, ok := e.(*kernel.Ctx); ok && c.Dev.Run.PowerFailures > 0 {
			panic("task re-executed")
		}
		e.Compute(2000)
		e.Done()
	})
	if err := frontend.Analyze(a); err != nil {
		return nil, err
	}
	return &apps.Bench{App: a}, nil
}

// TestPanicsBecomeErrors pins panic isolation in every entry point: a
// panic in the factory (golden pass) or in a replay — inline with one
// worker, on worker goroutines with two — returns an error wrapping
// experiments.PanicError instead of unwinding into the caller.
func TestPanicsBecomeErrors(t *testing.T) {
	ctx := context.Background()
	boom := func() (*apps.Bench, error) { panic("factory exploded") }
	calls := map[string]func() error{
		"Golden": func() error {
			_, err := Golden(boom, experiments.EaseIO, Config{})
			return err
		},
		"Run/factory": func() error {
			_, err := Run(ctx, boom, experiments.EaseIO, Config{})
			return err
		},
		"Run/replay inline": func() error {
			_, err := Run(ctx, reexecBoom, experiments.EaseIO, Config{Workers: 1})
			return err
		},
		"Run/replay on goroutines": func() error {
			_, err := Run(ctx, reexecBoom, experiments.EaseIO, Config{Workers: 2})
			return err
		},
		"PlanNested/replay": func() error {
			_, err := PlanNested(ctx, reexecBoom, experiments.EaseIO, Config{Failures: 2, Workers: 2})
			return err
		},
	}
	for name, call := range calls {
		var pe experiments.PanicError
		if err := call(); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a PanicError in the chain", name, err)
		}
	}
}
