// The run: generate the inputs, compute the references, set the system
// up several times, drive whole cycles of the job order through a closed
// loop of clients, check every output, and turn the timings into the
// end-to-end (untraced) or per-layer (traced) metrics.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/service"
	"easeio/internal/wire"
)

// setupRepeats is how many times a run sets the system up; setup_s is the
// median.
const setupRepeats = 15

// jobTimeout fails a job that has not finished this long after its POST.
const jobTimeout = 2 * time.Minute

// maxOvershoot stops a window mid-cycle if whole cycles would run this far
// past the requested length (only a badly slowed program gets there).
const maxOvershoot = 30 * time.Second

func run(opt options) (result, error) {
	var res result
	p, err := makePlan(opt.workload, opt.seed, opt.tiny)
	if err != nil {
		return res, err
	}
	host := fingerprint(opt.outDir)
	fmt.Fprintf(opt.log, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(opt.log, "host: %s\n", host)
	fmt.Fprintf(opt.log, "inputs: %d distinct jobs per cycle, %d client(s)\n", len(p.pool), p.clients)

	reg := service.NewRegistry()
	if err := service.RegisterPaperBenches(reg); err != nil {
		return res, err
	}
	t0 := time.Now()
	if err := p.computeRefs(reg); err != nil {
		return res, err
	}
	fmt.Fprintf(opt.log, "references: %d computed in process in %.2fs; output digest %s\n",
		len(p.refs), time.Since(t0).Seconds(), p.digest())

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return res, err
	}
	untraced, err := measure(opt, p, reg, nil)
	if err != nil {
		return res, err
	}
	res.attempted, res.failed = untraced.attempted, untraced.failed
	if !opt.trace {
		untraced.endToEnd(&res)
		untraced.print(opt.log)
	} else {
		tr := newTracer()
		traced, err := measure(opt, p, reg, tr)
		if err != nil {
			return res, err
		}
		res.attempted += traced.attempted
		res.failed += traced.failed
		fmt.Fprintln(opt.log, "untraced window:")
		untraced.print(opt.log)
		fmt.Fprintln(opt.log, "traced window:")
		traced.print(opt.log)
		if err := perLayer(opt, p, reg, tr, untraced, traced, &res); err != nil {
			return res, err
		}
	}
	res.correct = res.failed == 0
	fmt.Fprintf(opt.log, "error_ratio %.6g (%d failed, refused or wrong of %d attempted)\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	return res, nil
}

// window is one measured closed-loop window.
type window struct {
	setup     []time.Duration
	elapsed   time.Duration
	cycles    int
	latencies []time.Duration   // completed jobs only, sorted
	byCycle   [][]time.Duration // the same, per whole cycle
	attempted int
	failed    int
	runs      int // simulated runs of the completed jobs
	rssMB     float64
	goStats   goDelta
	outcomes  []outcome
	// Fleet workloads: the coordinator's metric exposition and retry
	// count at the end of the window.
	fleetMetrics string
	retries      int64
}

// outcome is one finished job.
type outcome struct {
	seq     int // position in the window's job sequence
	idx     int // pool index
	latency time.Duration
	ok      bool
	report  *check.Report // traced check jobs: the report as the client read it
}

// measure sets the workload's system up setupRepeats times, keeps the
// last one, and runs whole cycles for at least opt.seconds.
func measure(opt options, p *plan, reg *service.Registry, tr *tracer) (*window, error) {
	w := &window{}
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		// Every set-up starts from a collected heap, whatever came before.
		runtime.GC()
		t0 := time.Now()
		var err error
		switch p.workload {
		case "sweep-long":
			err = describeAll()
		default:
			st, err = startStack(opt.outDir, tr)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		w.setup = append(w.setup, time.Since(t0))
		if st != nil && i < setupRepeats-1 {
			if err := st.stop(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	exec, closeClients := sweepExecutor(p, reg, tr), func() {}
	if st != nil {
		exec, closeClients = fleetExecutor(p, st, tr)
	}
	d := &dispenser{cycle: len(p.pool), min: opt.window()}
	// Return the references' and set-ups' garbage to the OS so the
	// window's resident set is the system's own.
	debug.FreeOSMemory()
	stopRSS := make(chan struct{})
	peakRSS := sampleRSS(stopRSS)
	before := readGo()
	start := time.Now()
	d.start = start
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				o := exec(c, p.job(i))
				o.seq = i
				mu.Lock()
				w.outcomes = append(w.outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	close(stopRSS)
	w.rssMB = <-peakRSS
	closeClients()
	w.goStats = readGo().since(before)
	w.cycles = d.taken() / len(p.pool)
	if st != nil {
		var b strings.Builder
		st.fm.Expose(&b)
		w.fleetMetrics = b.String()
		w.retries = st.fm.Retries.Total()
		if err := st.stop(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
	}
	for _, o := range w.outcomes {
		w.attempted++
		if !o.ok {
			w.failed++
			continue
		}
		w.latencies = append(w.latencies, o.latency)
		w.runs += p.work[o.idx]
	}
	sort.Slice(w.latencies, func(i, j int) bool { return w.latencies[i] < w.latencies[j] })
	w.byCycle = make([][]time.Duration, w.cycles)
	for _, o := range w.outcomes {
		if c := o.seq / len(p.pool); o.ok && c < w.cycles {
			w.byCycle[c] = append(w.byCycle[c], o.latency)
		}
	}
	for _, l := range w.byCycle {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	return w, nil
}

// cycleQuantile is the median over the window's whole cycles of each
// cycle's q-quantile job latency. Every cycle runs the same jobs, and a
// burst of host slowdown that hits a few cycles moves this median less
// than it moves a quantile over the whole window.
func (w *window) cycleQuantile(q float64) time.Duration {
	var qs []time.Duration
	for _, l := range w.byCycle {
		if len(l) > 0 {
			qs = append(qs, quantile(l, q))
		}
	}
	if len(qs) == 0 {
		return quantile(w.latencies, q)
	}
	return medianDur(qs)
}

// describeAll is sweep-long's setup: a registry of the paper apps, each
// built and analysed once (what the service's blueprint listing does).
func describeAll() error {
	reg := service.NewRegistry()
	if err := service.RegisterPaperBenches(reg); err != nil {
		return err
	}
	for _, name := range reg.Names() {
		bp, _ := reg.Lookup(name)
		if _, err := bp.Describe(); err != nil {
			return err
		}
	}
	return nil
}

// dispenser hands out positions in the repeated job order. Once the
// window has lasted its minimum it stops at the next cycle boundary, so
// every window runs the same multiset of jobs.
type dispenser struct {
	mu    sync.Mutex
	next  int
	cycle int
	min   time.Duration
	start time.Time
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el := time.Since(d.start)
	if (d.next%d.cycle == 0 && d.next > 0 && el >= d.min) || el >= d.min+maxOvershoot {
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

func (d *dispenser) taken() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.next
}

// sweepExecutor runs one sweep-long job: an in-process RunMany on two
// workers, checked against the single-worker reference.
func sweepExecutor(p *plan, reg *service.Registry, tr *tracer) func(client, idx int) outcome {
	var jobs atomic.Uint64
	return func(client, idx int) outcome {
		s := p.pool[idx]
		factory, _ := reg.LookupFactory(s.App)
		kind, _ := experiments.ParseRuntimeKind(s.Runtime)
		id := tr.newID()
		if tr != nil {
			factory = (&timedSource{tr: tr, track: "sweep builds", cur: newCur(id)}).wrap(factory)
		}
		t0 := time.Now()
		sum, err := experiments.RunMany(experiments.Config{Runs: s.Runs, BaseSeed: s.Seed, Workers: 2}, factory, kind)
		t1 := time.Now()
		if tr != nil {
			tr.record(span{id: id, name: "experiments.run_many", track: "client-0", job: jobs.Add(1)}, t0, t1)
			tr.add("experiments.runs."+s.App, float64(s.Runs))
			tr.add("experiments.seconds."+s.App, t1.Sub(t0).Seconds())
		}
		ok := err == nil && bytes.Equal(wire.AppendSummary(nil, sum), p.refs[idx])
		return outcome{idx: idx, latency: t1.Sub(t0), ok: ok}
	}
}

// fleetExecutor runs one fleet job through the HTTP API: POST /jobs, wait
// for the in-process Job.Done, GET /jobs/{id}, and compare the result
// with the in-process reference. The second func closes the clients'
// connections.
func fleetExecutor(p *plan, st *stack, tr *tracer) (func(client, idx int) outcome, func()) {
	clients := make([]*http.Client, p.clients)
	for i := range clients {
		clients[i] = &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}
	}
	closeAll := func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}
	return func(client, idx int) outcome {
		s := p.pool[idx]
		c := clients[client]
		track := fmt.Sprintf("client-%d", client)
		spec := service.JobSpec{App: s.App, Runtime: s.Runtime, Mode: s.Mode, BaseSeed: s.Seed, Workers: 1}
		if s.Mode == "sweep" {
			spec.Runs = s.Runs
		} else {
			spec.CheckExhaustive, spec.Failures = true, s.Failures
		}
		body, _ := json.Marshal(spec)
		o := outcome{idx: idx}
		t0 := time.Now()
		var posted service.Status
		code, _, err := roundTrip(c, http.MethodPost, st.base+"/jobs", body, &posted)
		t1 := time.Now()
		if err != nil || code != http.StatusAccepted {
			fmt.Fprintf(os.Stderr, "perfbench: POST %s: status %d: %v\n", s.key(), code, err)
			return o
		}
		j, found := st.mgr.Get(posted.ID)
		if !found {
			return o
		}
		select {
		case <-j.Done():
		case <-time.After(jobTimeout):
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s) did not finish in %v\n", posted.ID, s.key(), jobTimeout)
			return o
		}
		t2 := time.Now()
		var got service.Status
		code, n, err := roundTrip(c, http.MethodGet, fmt.Sprintf("%s/jobs/%d", st.base, posted.ID), nil, &got)
		t3 := time.Now()
		o.latency = t3.Sub(t0)
		o.ok = err == nil && code == http.StatusOK && got.State == "succeeded" && matches(s.Mode, &got, p.refs[idx])
		if !o.ok {
			fmt.Fprintf(os.Stderr, "perfbench: job %d (%s) state %q error %q: result differs from the in-process reference or failed (%v)\n",
				posted.ID, s.key(), got.State, got.Error, err)
		}
		if tr != nil {
			o.report = got.Check
			job := posted.ID
			root := tr.newID()
			tr.record(span{parent: root, job: job, name: "service.post", track: track}, t0, t1)
			tr.record(span{parent: root, job: job, name: "service.get", track: track}, t2, t3)
			tr.record(span{id: root, job: job, name: "client.job", track: track}, t0, t3)
			tr.noteClientJob(job, s.key(), t0, t3)
			tr.add("service.post_ms", float64(t1.Sub(t0))/1e6)
			tr.add("service.get_ms", float64(t3.Sub(t2))/1e6)
			tr.add("service.result_bytes", float64(n))
			tr.add("service.queued_ms", float64(got.QueuedForMs))
			if got.LeaseWaitMs != nil {
				tr.add("fleet.lease_wait_ms", float64(*got.LeaseWaitMs))
			}
		}
		return o
	}, closeAll
}

// roundTrip sends one request and decodes the JSON reply into out; it
// returns the status code and the reply's size.
func roundTrip(c *http.Client, method, url string, body []byte, out any) (int, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	return resp.StatusCode, len(raw), json.Unmarshal(raw, out)
}

// matches compares a job's result, as the client read it, with the
// in-process reference's wire encoding.
func matches(mode string, st *service.Status, ref []byte) bool {
	switch mode {
	case "sweep":
		return st.Summary != nil && bytes.Equal(wire.AppendSummary(nil, *st.Summary), ref)
	case "check":
		return st.Check != nil && bytes.Equal(wire.AppendReport(nil, *st.Check), ref)
	}
	return false
}

// quantile is the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd books the end-to-end metrics of an untraced window.
func (w *window) endToEnd(r *result) {
	sec := w.elapsed.Seconds()
	r.set("setup_s", "s", medianDur(w.setup).Seconds())
	r.set("jobs_per_s", "1/s", float64(len(w.latencies))/sec)
	r.set("job_p50_ms", "ms", float64(w.cycleQuantile(0.50))/1e6)
	r.set("job_p95_ms", "ms", float64(w.cycleQuantile(0.95))/1e6)
	r.set("runs_per_s", "1/s", float64(w.runs)/sec)
	r.set("peak_rss_mb", "MB", w.rssMB)
}

func (w *window) print(out io.Writer) {
	sec := w.elapsed.Seconds()
	fmt.Fprintf(out, "  setup: median %.4fs of %d (%v)\n", medianDur(w.setup).Seconds(), len(w.setup), roundAll(w.setup))
	fmt.Fprintf(out, "  window: %.3fs, %d whole cycle(s), %d jobs attempted, %d failed\n", sec, w.cycles, w.attempted, w.failed)
	n := len(w.latencies)
	fmt.Fprintf(out, "  jobs_per_s %.4f  runs_per_s %.1f  job_p50_ms %.3f  job_p95_ms %.3f (medians over %d cycles)  peak_rss_mb %.1f\n",
		float64(n)/sec, float64(w.runs)/sec, float64(w.cycleQuantile(0.5))/1e6,
		float64(w.cycleQuantile(0.95))/1e6, len(w.byCycle), w.rssMB)
	fmt.Fprintf(out, "  over the whole window: job p50 %.3f ms, p95 %.3f ms (n=%d, %d beyond p95)\n",
		float64(quantile(w.latencies, 0.5))/1e6, float64(quantile(w.latencies, 0.95))/1e6,
		n, n-int(0.95*float64(n)+0.5))
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(10 * time.Microsecond)
	}
	return out
}

// traceFile is where a traced run writes its Chrome trace.
func traceFile(opt options) string {
	return filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-seed%d.json", opt.workload, opt.seed))
}
