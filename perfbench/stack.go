// The system under test for the fleet workloads, assembled the way
// easeio-served -fleet assembles it: a registry of the paper apps, a
// WAL-backed fleet coordinator, a job manager delegating to it, the HTTP
// front end on a loopback listener, and two in-process workers running
// the Lease → fleet.ExecuteShard → Complete cycle of fleet.RunLoopback
// with easeio-served's 10 ms idle poll. The worker loop lives here so the
// traced run can time each call.

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/fleet"
	"easeio/internal/service"
	"easeio/internal/wire"
)

// Deployment constants, as easeio-served sets them.
const (
	fleetWorkers = 2                     // -fleet-workers default
	idlePoll     = 10 * time.Millisecond // loopback worker idle poll
	queueSize    = 64                    // -queue default
	jobWorkers   = 2                     // -jobs default on a 2-vCPU host
)

// stack is one running service + fleet.
type stack struct {
	dir   string
	reg   *service.Registry
	fm    *fleet.Metrics
	coord *fleet.Coordinator
	mgr   *service.Manager
	srv   *http.Server
	base  string

	cancel context.CancelFunc
	wg     sync.WaitGroup
	errMu  sync.Mutex
	errs   []error
}

// startStack brings the stack up in a fresh directory under root and
// returns once the HTTP front end has answered a client: the health
// check, then the blueprint listing (which builds and analyses every
// registered app).
func startStack(root string, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(root, "stack-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, reg: service.NewRegistry(), fm: fleet.NewMetrics()}
	if err := service.RegisterPaperBenches(s.reg); err != nil {
		s.stop()
		return nil, err
	}
	var coordSrc fleet.BlueprintSource = s.reg
	if tr != nil {
		coordSrc = &timedSource{reg: s.reg, tr: tr, track: "coordinator builds"}
	}
	s.coord, err = fleet.New(fleet.CoordinatorConfig{
		WALPath: filepath.Join(dir, "fleet.wal"), Source: coordSrc, Metrics: s.fm,
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	metrics := service.NewMetrics()
	s.mgr = service.NewManager(s.reg, metrics, queueSize, jobWorkers, service.WithFleet(s.coord))
	handler := service.NewServer(s.mgr, s.reg, metrics, service.WithFleetMetrics(s.fm)).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			s.fail(fmt.Errorf("http serve: %w", err))
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := &worker{name: fmt.Sprintf("local-%d", i), coord: s.coord, src: s.reg, tr: tr}
		if tr != nil {
			w.src = &timedSource{reg: s.reg, tr: tr, track: w.name + " builds", cur: &w.cur}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := w.loop(ctx); err != nil {
				s.fail(fmt.Errorf("worker %s: %w", w.name, err))
			}
		}()
	}
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	for _, path := range []string{"/healthz", "/blueprints"} {
		if err := getOK(client, s.base+path); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

func getOK(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return nil
}

func (s *stack) fail(err error) {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	s.errs = append(s.errs, err)
}

// err reports any failure of the server or a worker so far.
func (s *stack) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return errors.Join(s.errs...)
}

// stop shuts everything down, waits for every goroutine it started and
// removes the stack's directory.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	if s.mgr != nil {
		errs = append(errs, s.mgr.Shutdown(ctx))
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir), s.err())
	return errors.Join(errs...)
}

// worker is one loopback fleet worker.
type worker struct {
	name  string
	coord *fleet.Coordinator
	src   fleet.BlueprintSource
	tr    *tracer
	cur   atomic.Uint64 // traced: the shard span app builds nest under
}

// loop is fleet.RunLoopback's cycle, with every call timed when traced.
func (w *worker) loop(ctx context.Context) error {
	tr := w.tr
	for ctx.Err() == nil {
		t0 := time.Now()
		task, ok, err := w.coord.Lease(w.name)
		t1 := time.Now()
		tr.add("fleet.lease_us", us(t1.Sub(t0)))
		if err != nil {
			return err
		}
		if !ok {
			tr.record(span{name: "fleet.lease", track: w.name}, t0, t1)
			tr.add("fleet.idle_leases", 1)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(idlePoll):
			}
			continue
		}
		kind := wire.PeekKind(task)
		var fleetJob uint64
		if tr != nil {
			fleetJob = w.decodeTask(task, kind)
			tr.record(span{name: "fleet.lease", track: w.name, fleetJob: fleetJob}, t0, t1)
		}
		id := tr.newID()
		w.cur.Store(id)
		t2 := time.Now()
		result, execErr := fleet.ExecuteShard(ctx, w.src, task)
		t3 := time.Now()
		tr.record(span{id: id, name: "fleet.exec." + shortKind(kind), track: w.name, fleetJob: fleetJob}, t2, t3)
		tr.add("fleet.exec_ms."+shortKind(kind), float64(t3.Sub(t2))/1e6)
		if execErr != nil {
			if ctx.Err() != nil {
				return nil
			}
			job, shard, idErr := taskIDs(task, kind)
			if idErr != nil {
				return idErr
			}
			if err := w.coord.FailShard(w.name, job, shard, execErr.Error()); err != nil {
				return err
			}
			continue
		}
		if tr != nil {
			w.decodeResult(result, kind, fleetJob)
		}
		t4 := time.Now()
		err = w.coord.Complete(w.name, result)
		t5 := time.Now()
		tr.record(span{name: "fleet.complete", track: w.name, fleetJob: fleetJob}, t4, t5)
		tr.add("fleet.complete_us", us(t5.Sub(t4)))
		if err != nil {
			return err
		}
	}
	return nil
}

// shortKind names a shard kind as the per-layer metrics do.
func shortKind(k wire.Kind) string {
	switch k {
	case wire.KindSweepShard:
		return "sweep"
	case wire.KindCheckShard:
		return "check"
	case wire.KindSubtreeShard:
		return "subtree"
	}
	return "other"
}

// decodeTask decodes a copy of a leased task (traced only): its size and
// decode time feed the wire metrics, and its spec key ties the fleet job
// to the client request.
func (w *worker) decodeTask(task []byte, kind wire.Kind) uint64 {
	cp := append([]byte(nil), task...)
	t0 := time.Now()
	var job uint64
	var key string
	switch kind {
	case wire.KindSweepShard:
		s, err := wire.DecodeSweepShard(cp)
		if err == nil {
			job, key = s.Job, jobSpec{Mode: "sweep", App: s.App, Runtime: s.Runtime, Seed: s.BaseSeed}.key()
		}
	case wire.KindCheckShard:
		s, err := wire.DecodeCheckShard(cp)
		if err == nil {
			job, key = s.Job, jobSpec{Mode: "check", App: s.App, Runtime: s.Runtime, Seed: s.Seed, Failures: max(s.Failures, 1)}.key()
		}
	case wire.KindSubtreeShard:
		s, err := wire.DecodeSubtreeShard(cp)
		if err == nil {
			job, key = s.Job, jobSpec{Mode: "check", App: s.App, Runtime: s.Runtime, Seed: s.Seed, Failures: s.Failures}.key()
		}
	}
	t1 := time.Now()
	tr := w.tr
	tr.record(span{name: "wire.decode_task", track: w.name, fleetJob: job}, t0, t1)
	tr.add("wire.decode_us."+shortKind(kind), us(t1.Sub(t0)))
	tr.add("wire.task_bytes."+shortKind(kind), float64(len(task)))
	tr.noteFleetJob(job, key, t0)
	return job
}

// decodeResult decodes a copy of a shard result (traced only).
func (w *worker) decodeResult(result []byte, kind wire.Kind, fleetJob uint64) {
	cp := append([]byte(nil), result...)
	t0 := time.Now()
	switch wire.PeekKind(cp) {
	case wire.KindSweepResult:
		_, _ = wire.DecodeSweepResult(cp)
	case wire.KindCheckResult:
		_, _ = wire.DecodeCheckResult(cp)
	case wire.KindSubtreeResult:
		_, _ = wire.DecodeSubtreeResult(cp)
	}
	t1 := time.Now()
	w.tr.record(span{name: "wire.decode_result", track: w.name, fleetJob: fleetJob}, t0, t1)
	w.tr.add("wire.decode_us."+shortKind(kind), us(t1.Sub(t0)))
	w.tr.add("wire.result_bytes."+shortKind(kind), float64(len(result)))
}

// taskIDs peeks a failed task's job and shard for FailShard.
func taskIDs(task []byte, kind wire.Kind) (uint64, int, error) {
	switch kind {
	case wire.KindSweepShard:
		s, err := wire.DecodeSweepShard(task)
		return s.Job, s.Shard, err
	case wire.KindCheckShard:
		s, err := wire.DecodeCheckShard(task)
		return s.Job, s.Shard, err
	case wire.KindSubtreeShard:
		s, err := wire.DecodeSubtreeShard(task)
		return s.Job, s.Shard, err
	}
	return 0, 0, fmt.Errorf("task is %v, want a shard", kind)
}

// timedSource is the traced run's BlueprintSource: it times and counts
// every app build (factory call: construction plus frontend analysis).
// Builds nest under the span cur names (the worker's current shard).
type timedSource struct {
	reg   *service.Registry
	tr    *tracer
	track string
	cur   *atomic.Uint64
}

func (s *timedSource) LookupFactory(name string) (experiments.AppFactory, bool) {
	f, ok := s.reg.LookupFactory(name)
	if !ok {
		return nil, false
	}
	return s.wrap(f), true
}

func (s *timedSource) wrap(f experiments.AppFactory) experiments.AppFactory {
	return func() (*apps.Bench, error) {
		var parent uint64
		if s.cur != nil {
			parent = s.cur.Load()
		}
		t0 := time.Now()
		b, err := f()
		t1 := time.Now()
		s.tr.record(span{name: "apps.build", track: s.track, parent: parent}, t0, t1)
		s.tr.add("apps.build_us", us(t1.Sub(t0)))
		return b, err
	}
}
