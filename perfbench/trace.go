// The traced run's recorder: spans around every call the benchmark makes
// into a layer, plus named tallies for the per-layer metrics. Everything
// stays in memory until the run ends; a nil *tracer records nothing, so
// untraced code paths pay one nil check per call site.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Spans of one job share job (0 = not tied to a
// job); parent is the enclosing span's id (0 = a root).
type span struct {
	id, parent uint64
	job        uint64
	fleetJob   uint64 // worker-side spans: the fleet job, resolved to job at export
	name       string
	track      string
	start, end time.Duration // since the tracer's epoch
}

// layer is the span name's first dotted component.
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

// acc is a running sum and count.
type acc struct {
	sum float64
	n   int
}

// clientJob is one client request's identity, used to attribute
// worker-side spans (which know only the fleet job) to the service job.
type clientJob struct {
	id         uint64
	key        string
	start, end time.Duration
}

// fleetSeen is the first sighting of a fleet job in a leased shard.
type fleetSeen struct {
	key string
	at  time.Duration
}

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	spans   []span
	tallies map[string]*acc
	jobs    []clientJob
	fleet   map[uint64]fleetSeen
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), tallies: make(map[string]*acc), fleet: make(map[uint64]fleetSeen)}
}

// newID reserves a span id before the span's children start.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(s span, t0, t1 time.Time) uint64 {
	if t == nil {
		return 0
	}
	s.start, s.end = t0.Sub(t.epoch), t1.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id == 0 {
		t.nextID++
		s.id = t.nextID
	}
	t.spans = append(t.spans, s)
	return s.id
}

// add books one observation of a tally.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.tallies[name]
	if a == nil {
		a = &acc{}
		t.tallies[name] = a
	}
	a.sum += v
	a.n++
}

// tally returns a tally's sum and count.
func (t *tracer) tally(name string) (sum float64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.tallies[name]; a != nil {
		return a.sum, a.n
	}
	return 0, 0
}

// mean is a tally's mean (0 when never observed).
func (t *tracer) mean(name string) float64 {
	sum, n := t.tally(name)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// noteClientJob records a finished client request for span attribution.
func (t *tracer) noteClientJob(id uint64, key string, t0, t1 time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs = append(t.jobs, clientJob{id: id, key: key, start: t0.Sub(t.epoch), end: t1.Sub(t.epoch)})
}

// noteFleetJob records the first leased shard of a fleet job.
func (t *tracer) noteFleetJob(fleetJob uint64, key string, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.fleet[fleetJob]; !ok {
		t.fleet[fleetJob] = fleetSeen{key: key, at: at.Sub(t.epoch)}
	}
}

// attribute resolves worker-side spans to service jobs: a fleet job
// belongs to the client request with the same spec key whose lifetime
// contains the fleet job's first lease. Two requests in flight share a
// key only across a cycle boundary; then the first match wins. Client
// root spans adopt the worker spans of their job as children.
func (t *tracer) attribute() {
	byKey := make(map[string][]clientJob)
	for _, j := range t.jobs {
		byKey[j.key] = append(byKey[j.key], j)
	}
	resolved := make(map[uint64]uint64, len(t.fleet))
	for fj, seen := range t.fleet {
		for _, j := range byKey[seen.key] {
			if seen.at >= j.start && seen.at <= j.end {
				resolved[fj] = j.id
				break
			}
		}
	}
	roots := make(map[uint64]uint64) // job -> its root span
	for _, s := range t.spans {
		if s.job != 0 && s.parent == 0 && s.name == "client.job" {
			roots[s.job] = s.id
		}
	}
	jobOf := make(map[uint64]uint64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.fleetJob != 0 && s.job == 0 {
			s.job = resolved[s.fleetJob]
			if s.parent == 0 && s.job != 0 {
				s.parent = roots[s.job]
			}
		}
		jobOf[s.id] = s.job
	}
	// Children recorded inside a worker-side span (app builds) inherit
	// its job.
	for i := range t.spans {
		if s := &t.spans[i]; s.job == 0 && s.parent != 0 {
			s.job = jobOf[s.parent]
		}
	}
}

// layerTime is one layer's self time and span count.
type layerTime struct {
	layer string
	self  time.Duration
	spans int
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of its interval its children cover (children may overlap each
// other when they run on parallel goroutines; the union is subtracted).
func (t *tracer) selfTimes() []layerTime {
	children := make(map[uint64][][2]time.Duration)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	per := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := per[s.layer()]
		if lt == nil {
			lt = &layerTime{layer: s.layer()}
			per[s.layer()] = lt
		}
		lt.spans++
		lt.self += (s.end - s.start) - covered(s.start, s.end, children[s.id])
	}
	out := make([]layerTime, 0, len(per))
	for _, lt := range per {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// maxExportSpans bounds the Chrome trace file; the per-layer numbers
// always use every span.
const maxExportSpans = 100_000

// chromeEvent mirrors the trace_event fields kernel.WriteChromeTrace
// emits (testdata/weather_trace.golden.json), in the same key order.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace (one event per line,
// tracks named by thread_name metadata) and returns how many spans it
// wrote.
func (t *tracer) writeChrome(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	n, err := t.encodeChrome(w)
	if err != nil {
		return 0, err
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}

func (t *tracer) encodeChrome(w io.Writer) (int, error) {
	spans := t.spans
	if len(spans) > maxExportSpans {
		spans = spans[:maxExportSpans]
	}
	tids := make(map[string]int)
	var tracks []string
	for _, s := range spans {
		if _, ok := tids[s.track]; !ok {
			tids[s.track] = len(tids) + 1
			tracks = append(tracks, s.track)
		}
	}
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench host"}}}
	for _, tr := range tracks {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[tr], Args: map[string]any{"name": tr}})
	}
	for _, s := range spans {
		dur := us(s.end - s.start)
		args := map[string]any{"span": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.job != 0 {
			args["job"] = s.job
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X", Ts: us(s.start), Dur: &dur,
			Pid: 1, Tid: tids[s.track], Args: args,
		})
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"); err != nil {
		return 0, err
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return 0, err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", b, sep); err != nil {
			return 0, err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return len(spans), err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
