package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the benchmark's definition at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDefinition(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// tinyRun runs one workload at self-test size and decodes its verdict
// line.
func tinyRun(t *testing.T, workload string, trace bool) (verdict, string) {
	t.Helper()
	var out bytes.Buffer
	opt := options{workload: workload, seed: 7, seconds: 0.01, trace: trace, tiny: true, outDir: t.TempDir(), log: &out}
	res, err := run(opt)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	var line bytes.Buffer
	if err := printResult(&line, res); err != nil {
		t.Fatal(err)
	}
	var v verdict
	if err := json.Unmarshal(line.Bytes(), &v); err != nil {
		t.Fatalf("verdict line %q: %v", line.String(), err)
	}
	return v, out.String()
}

type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checkMetrics requires exactly the defined metric names, with their
// units.
func checkMetrics(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	var names []string
	for _, d := range want {
		names = append(names, d.Name)
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for n := range got {
			if !slices.Contains(names, n) {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

// TestTinyWorkloads runs every workload at self-test size: each prints
// every end-to-end metric, every positive, with error ratio 0.
func TestTinyWorkloads(t *testing.T) {
	def := readDefinition(t)
	for _, w := range def.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not one of the program's %v", w.Name, workloadNames)
		}
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			v, log := tinyRun(t, w, false)
			if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
				t.Fatalf("verdict %+v\n%s", v, log)
			}
			checkMetrics(t, v.Metrics, def.EndToEnd)
			for name, m := range v.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			if !strings.Contains(log, "output digest ") || !strings.Contains(log, "host: cpu=") {
				t.Errorf("log lacks the digest or the host fingerprint:\n%s", log)
			}
		})
	}
}

// TestTinyTraced runs every workload traced: each emits every per-layer
// metric and a Chrome trace that loads as JSON.
func TestTinyTraced(t *testing.T) {
	def := readDefinition(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			v, log := tinyRun(t, w, true)
			if !v.Correct || v.Failed != 0 {
				t.Fatalf("verdict %+v\n%s", v, log)
			}
			checkMetrics(t, v.Metrics, def.PerLayer)
			for _, want := range []string{"per-layer self time", "tracing overhead", "chrome trace: "} {
				if !strings.Contains(log, want) {
					t.Errorf("log lacks %q:\n%s", want, log)
				}
			}
			path := strings.TrimSpace(strings.SplitN(strings.SplitN(log, "chrome trace: ", 2)[1], " (", 2)[0])
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil {
				t.Fatalf("chrome trace does not load: %v", err)
			}
			if len(trace.TraceEvents) < 2 {
				t.Fatalf("chrome trace has %d events", len(trace.TraceEvents))
			}
		})
	}
}

// TestSpanSelfTime pins the self-time rule: a span's duration minus the
// union of its children's intervals.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{id: 1, name: "fleet.exec.sweep", start: 0, end: 100},
		{id: 2, parent: 1, name: "apps.build", start: 10, end: 30},
		{id: 3, parent: 1, name: "apps.build", start: 20, end: 40},  // overlaps 2
		{id: 4, parent: 1, name: "apps.build", start: 90, end: 120}, // clipped at 100
	}
	got := map[string]int64{}
	for _, lt := range tr.selfTimes() {
		got[lt.layer] = int64(lt.self)
	}
	if got["fleet"] != 100-30-10 || got["apps"] != 20+20+30 {
		t.Fatalf("self times %v", got)
	}
}
