// Command perfbench is the repository benchmark: three workloads that
// drive the sweep engine, the fleet-backed sweep service and the
// fleet-backed exhaustive checker through their public entry points,
// time them from outside, and check every output against the
// in-process engines.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload sweep-long|fleet-sweep-short|fleet-check \
//	          --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, measured
// in a traced window that follows an untraced one (the difference is the
// tracing overhead), and the spans are written as a Chrome trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&opt.seconds, "seconds", 10, "minimum measured window in seconds (whole job cycles run)")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced window")
	flag.Parse()
	opt.outDir = defaultOutDir()
	opt.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if opt.seconds <= 0 {
		fatalf("--seconds must be positive, got %v", opt.seconds)
	}
	opt.log = os.Stdout
	res, err := run(opt)
	if err != nil {
		fatalf("%v", err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fatalf("%v", err)
	}
}

// defaultOutDir is where the WAL directories and the Chrome trace go:
// the build directory of the checkout the benchmark runs in.
func defaultOutDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// tiny shrinks every pool to a handful of small jobs (the self-test).
	tiny bool
	log  io.Writer
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// result is the benchmark's verdict and its metrics in output order.
type result struct {
	correct   bool
	attempted int
	failed    int
	names     []string
	metrics   map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metricValue)
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// printResult writes the single-line JSON verdict, metrics in definition
// order.
func printResult(w io.Writer, r result) error {
	type out struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	buf := []byte{'{'}
	for i, name := range r.names {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, _ := json.Marshal(name)
		v, err := json.Marshal(r.metrics[name])
		if err != nil {
			return fmt.Errorf("metric %s: %w", name, err)
		}
		buf = append(append(append(buf, k...), ':'), v...)
	}
	buf = append(buf, '}')
	line, err := json.Marshal(out{r.correct, r.attempted, r.failed, buf})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
