// Host facts and the traced run's per-layer metrics: the host
// fingerprint, peak RSS, Go runtime counters, the cold/warm kernel probe
// per cell, the golden-pass probe per check cell, and the assembly of
// every per-layer metric from the traced window's tallies and spans.

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/service"
)

// fingerprint describes the host: CPU model, nproc, GOMAXPROCS, Go
// version and the filesystem the WAL directory lives on.
func fingerprint(walDir string) string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s walfs=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, filesystemOf(walDir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf returns the type of the mount holding dir (the longest
// mount point that prefixes its absolute path).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), fields[2]
		}
	}
	return fs
}

// rssMB is the process's current resident set (VmRSS) in MB.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampleEvery is the resident-set sampling period of a window.
const rssSampleEvery = 5 * time.Millisecond

// sampleRSS records the largest resident set seen every rssSampleEvery
// until stop is closed, then sends it on the returned channel. The
// process-lifetime peak (VmHWM) would report the reference computation
// instead of the window.
func sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := rssMB()
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return out
}

// goSample is a snapshot of the runtime counters the per-layer go.*
// metrics difference.
type goSample struct{ gcCPU, totalCPU, allocBytes float64 }

type goDelta goSample

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return goSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (s goSample) since(before goSample) goDelta {
	return goDelta{s.gcCPU - before.gcCPU, s.totalCPU - before.totalCPU, s.allocBytes - before.allocBytes}
}

func newCur(id uint64) *atomic.Uint64 {
	var c atomic.Uint64
	c.Store(id)
	return &c
}

// probeRuns is the number of warm session runs timed per cell.
const probeRuns = 20

// kernelProbe times, for every distinct app × runtime cell of the plan, a
// cold start (kernel.NewDevice, the runtime's Attach, the first
// kernel.RunAttached) and warm pooled runs (kernel.Session.Run after a
// first run). Builds are not timed here; apps.build_us comes from the
// workload itself.
func kernelProbe(p *plan, reg *service.Registry, tr *tracer, seed int64) error {
	for _, c := range distinctCells(p) {
		factory, _ := reg.LookupFactory(c[0])
		kind, err := experiments.ParseRuntimeKind(c[1])
		if err != nil {
			return err
		}
		bench, err := factory()
		if err != nil {
			return err
		}
		rt := experiments.NewRuntime(kind)
		t0 := time.Now()
		dev := kernel.NewDevice(experiments.TimerSupply(), seed)
		t1 := time.Now()
		if err := rt.Attach(dev, bench.App); err != nil {
			return fmt.Errorf("probe attach %s/%s: %w", c[0], c[1], err)
		}
		t2 := time.Now()
		if err := kernel.RunAttached(dev, rt, bench.App); err != nil {
			return fmt.Errorf("probe run %s/%s: %w", c[0], c[1], err)
		}
		t3 := time.Now()
		tr.record(span{name: "kernel.new_device", track: "probe"}, t0, t1)
		tr.record(span{name: "rt.attach", track: "probe"}, t1, t2)
		tr.record(span{name: "kernel.first_run", track: "probe"}, t2, t3)
		tr.add("kernel.new_device_us", us(t1.Sub(t0)))
		tr.add("rt.attach_us", us(t2.Sub(t1)))
		tr.add("kernel.first_run_us", us(t3.Sub(t2)))

		warm, err := factory()
		if err != nil {
			return err
		}
		sess := kernel.NewSession(experiments.NewRuntime(kind), warm.App, experiments.TimerSupply())
		if _, err := sess.Run(seed); err != nil {
			return fmt.Errorf("probe session %s/%s: %w", c[0], c[1], err)
		}
		t4 := time.Now()
		for i := 1; i <= probeRuns; i++ {
			if _, err := sess.Run(seed + int64(i)); err != nil {
				return fmt.Errorf("probe session %s/%s: %w", c[0], c[1], err)
			}
		}
		t5 := time.Now()
		tr.record(span{name: "kernel.warm_runs", track: "probe"}, t4, t5)
		tr.add("kernel.warm_run_us", us(t5.Sub(t4))/probeRuns)
	}
	return nil
}

// goldenProbe times check.Golden once per distinct check spec.
func goldenProbe(p *plan, reg *service.Registry, tr *tracer) error {
	for _, s := range p.pool {
		if s.Mode != "check" {
			continue
		}
		factory, _ := reg.LookupFactory(s.App)
		kind, err := experiments.ParseRuntimeKind(s.Runtime)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := check.Golden(factory, kind, checkConfig(s)); err != nil {
			return fmt.Errorf("golden %s: %w", s.key(), err)
		}
		t1 := time.Now()
		tr.record(span{name: "check.golden", track: "probe"}, t0, t1)
		tr.add("check.golden_ms", float64(t1.Sub(t0))/1e6)
	}
	return nil
}

// distinctCells lists the plan's app × runtime cells in first-seen order.
func distinctCells(p *plan) [][2]string {
	seen := make(map[[2]string]bool)
	var out [][2]string
	for _, s := range p.pool {
		c := [2]string{s.App, s.Runtime}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// selfLayers are the layers whose self time per job is a metric.
var selfLayers = []string{"service", "fleet", "wire", "apps", "experiments", "check"}

// perLayer runs the probes and books every per-layer metric of the traced
// window, prints the self-time table and the tracing overhead, and writes
// the Chrome trace.
func perLayer(opt options, p *plan, reg *service.Registry, tr *tracer, untraced, traced *window, r *result) error {
	if err := kernelProbe(p, reg, tr, opt.seed); err != nil {
		return err
	}
	if err := goldenProbe(p, reg, tr); err != nil {
		return err
	}
	tr.attribute()
	jobs := float64(max(len(traced.latencies), 1))

	for _, m := range []struct{ name, unit string }{
		{"service.post_ms", "ms"}, {"service.get_ms", "ms"}, {"service.result_bytes", "bytes"},
		{"service.queued_ms", "ms"}, {"fleet.lease_wait_ms", "ms"},
		{"fleet.lease_us", "us"}, {"fleet.complete_us", "us"},
	} {
		r.set(m.name, m.unit, tr.mean(m.name))
	}
	_, leases := tr.tally("fleet.lease_us")
	_, idle := tr.tally("fleet.idle_leases")
	r.set("fleet.idle_lease_ratio", "ratio", ratio(float64(idle), float64(leases)))
	fsyncSum, fsyncs := histogram(traced.fleetMetrics, "easeio_fleet_wal_fsync_seconds")
	r.set("fleet.wal_fsync_us", "us", ratio(fsyncSum*1e6, fsyncs))
	r.set("fleet.wal_fsyncs_per_job", "count", fsyncs/jobs)
	mergeSum, merges := histogram(traced.fleetMetrics, "easeio_fleet_shard_merge_seconds")
	r.set("fleet.merge_ms", "ms", ratio(mergeSum*1e3, merges))
	r.set("fleet.retries", "count", float64(traced.retries))
	shards := 0
	for _, k := range []string{"sweep", "check", "subtree"} {
		_, n := tr.tally("fleet.exec_ms." + k)
		shards += n
		r.set("fleet.exec_ms."+k, "ms", tr.mean("fleet.exec_ms."+k))
	}
	r.set("fleet.shards_per_job", "count", float64(shards)/jobs)
	for _, k := range []string{"sweep", "check", "subtree"} {
		r.set("wire.task_bytes."+k, "bytes", tr.mean("wire.task_bytes."+k))
		r.set("wire.result_bytes."+k, "bytes", tr.mean("wire.result_bytes."+k))
		r.set("wire.decode_us."+k, "us", tr.mean("wire.decode_us."+k))
	}
	_, builds := tr.tally("apps.build_us")
	r.set("apps.build_us", "us", tr.mean("apps.build_us"))
	r.set("apps.builds_per_job", "count", float64(builds)/jobs)
	for _, name := range []string{"kernel.new_device_us", "rt.attach_us", "kernel.first_run_us", "kernel.warm_run_us"} {
		r.set(name, "us", tr.mean(name))
	}
	for _, app := range paperApps {
		runs, _ := tr.tally("experiments.runs." + app)
		secs, _ := tr.tally("experiments.seconds." + app)
		r.set("experiments.runs_per_s."+app, "1/s", ratio(runs, secs))
	}

	// Check metrics from the job reports (exact counts per job).
	r.set("check.golden_ms", "ms", tr.mean("check.golden_ms"))
	var d1, dN, collapsed, expanded, divs float64
	points := make(map[string]float64)
	seconds := make(map[string]float64)
	for _, o := range traced.outcomes {
		rep := o.report
		if !o.ok || rep == nil {
			continue
		}
		d1 += float64(rep.Explored)
		for _, d := range rep.Depths {
			dN += float64(d.Explored)
			collapsed += float64(d.Collapsed)
			expanded += float64(d.Expanded)
		}
		divs += float64(len(rep.Divergences))
		app := p.pool[o.idx].App
		points[app] += float64(pointsExplored(rep))
		seconds[app] += o.latency.Seconds()
	}
	for _, app := range paperApps {
		r.set("check.points_per_s."+app, "1/s", ratio(points[app], seconds[app]))
	}
	r.set("check.points.d1", "count", d1/jobs)
	r.set("check.points.dN", "count", dN/jobs)
	r.set("check.collapse_ratio", "ratio", ratio(collapsed, collapsed+expanded))
	r.set("check.divergences", "count", divs/jobs)

	g := traced.goStats
	r.set("go.gc_cpu_fraction", "ratio", ratio(g.gcCPU, g.totalCPU))
	r.set("go.alloc_bytes_per_op", "bytes", ratio(g.allocBytes, float64(traced.runs)))

	selfs := tr.selfTimes()
	fmt.Fprintln(opt.log, "per-layer self time (traced window and probes):")
	fmt.Fprintf(opt.log, "  %-12s %12s %8s\n", "layer", "self_ms", "spans")
	selfBy := make(map[string]time.Duration)
	for _, lt := range selfs {
		selfBy[lt.layer] = lt.self
		fmt.Fprintf(opt.log, "  %-12s %12.3f %8d\n", lt.layer, float64(lt.self)/1e6, lt.spans)
	}
	for _, l := range selfLayers {
		r.set(l+".self_ms_per_job", "ms", float64(selfBy[l])/1e6/jobs)
	}

	// Tracing overhead: traced minus untraced end-to-end numbers.
	var u, t result
	untraced.endToEnd(&u)
	traced.endToEnd(&t)
	fmt.Fprintln(opt.log, "tracing overhead (traced - untraced):")
	for _, name := range u.names {
		d := t.metrics[name].Value - u.metrics[name].Value
		fmt.Fprintf(opt.log, "  %-12s %+.6g %s (%+.2f%%)\n", name, d, u.metrics[name].Unit, 100*ratio(d, u.metrics[name].Value))
	}
	r.set("trace.overhead.jobs_per_s", "1/s", t.metrics["jobs_per_s"].Value-u.metrics["jobs_per_s"].Value)
	r.set("trace.overhead.job_p50_ms", "ms", t.metrics["job_p50_ms"].Value-u.metrics["job_p50_ms"].Value)

	path := traceFile(opt)
	n, err := tr.writeChrome(path)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	fmt.Fprintf(opt.log, "chrome trace: %s (%d of %d spans)\n", path, n, len(tr.spans))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram sums a Prometheus text histogram's _sum and _count series
// over every label value.
func histogram(text, name string) (sum, count float64) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		metric, _, _ := strings.Cut(fields[0], "{")
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch metric {
		case name + "_sum":
			sum += v
		case name + "_count":
			count += v
		}
	}
	return sum, count
}
