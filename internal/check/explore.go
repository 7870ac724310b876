// The exploration: every candidate cut point of a range is replayed
// once, in one pass over the range.
//
// The same loop explores every level of the nested-failure checkpoint
// tree (see nested.go): a subtree's candidate list is the recovery
// trajectory's cut points, its schedules share the subtree's failure
// prefix, and its recording passes resume from the subtree's root
// checkpoint instead of re-running the golden pass.
//
// Every replay is independent and deterministic and results land by
// candidate index, so the Report does not depend on Workers.

package check

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// recordFn captures one checkpoint per requested candidate index of a
// cut list — recorder.record along the golden run at level 1,
// replayer.recordSuffix along a recovery trajectory deeper in the tree.
// nil in from-boot mode.
type recordFn func(cuts []time.Duration, idxs []int) (map[int]*checkpoint, error)

type explorer struct {
	cfg      Config
	newApp   experiments.AppFactory
	newRT    func() kernel.Hooks
	golden   *golden
	cuts     []time.Duration
	lo, hi   int // the explored candidate-index range [lo, hi)
	fromBoot bool
	rec      *recorder // nil in from-boot mode

	reps    []*replayer           // worker pool, grown lazily by chunk demand
	tracer  *replayer             // nested mode: suffix tracing + recording passes
	done    atomic.Int64          // evaluated points, feeds Config.Progress
	planned atomic.Int64          // points scheduled so far, feeds Config.Progress
	failed  atomic.Pointer[error] // the first panicking replay on a worker goroutine
}

// explore evaluates every level-1 candidate cut point in the explored
// range, returning one outcome slot per candidate (slots outside the
// range stay unevaluated). On cancellation it returns what was evaluated
// so far plus ctx's error.
func (e *explorer) explore(ctx context.Context) ([]outcome, error) {
	var record recordFn
	if e.rec != nil {
		record = e.rec.record
	}
	return e.exploreRange(ctx, e.cuts, e.lo, e.hi, nil, record)
}

// exploreRange replays every candidate of one cut list in [lo, hi): the
// level-1 candidates or one subtree's recovery-trajectory cuts. Every
// evaluated schedule is prefix + cuts[i]. The range is walked in chunks
// of checkpointBatch; in checkpointed mode each chunk is recorded first
// — one recording pass captures a checkpoint per point, bounding memory
// by the chunk — and the workers restore and resume instead of
// re-running from boot. The replayer pool is sized lazily by chunk
// demand, so a range with fewer points than Workers never pays for app
// builds it cannot use.
func (e *explorer) exploreRange(ctx context.Context, cuts []time.Duration, lo, hi int,
	prefix []time.Duration, record recordFn) ([]outcome, error) {
	out := make([]outcome, len(cuts))
	if hi <= lo {
		return out, nil
	}
	e.planned.Add(int64(hi - lo))
	idxs := make([]int, 0, min(hi-lo, checkpointBatch))
	for start := lo; start < hi; start += checkpointBatch {
		idxs = idxs[:0]
		for i := start; i < min(start+checkpointBatch, hi); i++ {
			idxs = append(idxs, i)
		}
		var cps map[int]*checkpoint
		if record != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			var err error
			if cps, err = record(cuts, idxs); err != nil {
				return out, err
			}
		}
		if err := e.grow(len(idxs)); err != nil {
			return out, err
		}
		if err := e.evalChunk(ctx, out, cuts, idxs, cps, prefix); err != nil {
			return out, err
		}
		// evalChunk is a barrier: every replay of this chunk has
		// finished, so its checkpoints can back the next chunk.
		ckptRecycle(cps)
	}
	return out, nil
}

// grow ensures the pool covers min(Workers, demand) replayers.
func (e *explorer) grow(demand int) error {
	want := e.cfg.Workers
	if demand < want {
		want = demand
	}
	for len(e.reps) < want {
		r, err := newReplayer(e.newApp, e.newRT, e.golden, e.cfg, e.fromBoot)
		if err != nil {
			return err
		}
		e.reps = append(e.reps, r)
	}
	return nil
}

// evalChunk evaluates the given candidate indices on the worker pool.
// Results land in out by index, so completion order is irrelevant. cps
// is nil in from-boot mode; in checkpointed mode it holds one checkpoint
// per index. prefix is the failure schedule shared by every point of the
// chunk (nil at level 1). A panicking replay stops the chunk and is
// returned as its error.
func (e *explorer) evalChunk(ctx context.Context, out []outcome, cuts []time.Duration, idxs []int, cps map[int]*checkpoint, prefix []time.Duration) error {
	evalOne := func(r *replayer, i int) (err error) {
		r.sched = append(append(r.sched[:0], prefix...), cuts[i])
		defer func() {
			if v := recover(); v != nil {
				err = panicError(v, fmt.Sprintf("replay of schedule %v", r.sched))
			}
		}()
		if cps != nil {
			out[i] = r.evalFrom(cps[i], r.sched)
		} else {
			out[i] = r.eval(r.sched)
		}
		e.progress()
		return nil
	}
	reps := e.reps
	if len(reps) > len(idxs) {
		reps = reps[:len(idxs)]
	}
	if len(reps) == 1 {
		for _, i := range idxs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := evalOne(reps[0], i); err != nil {
				return err
			}
		}
		return nil
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(r *replayer) {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil || e.failed.Load() != nil {
					continue // drain without evaluating
				}
				if err := evalOne(r, i); err != nil {
					first := err // escapes only on this path
					e.failed.CompareAndSwap(nil, &first)
				}
			}
		}(r)
	}
	for _, i := range idxs {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := e.failed.Load(); err != nil {
		return *err
	}
	return ctx.Err()
}

func (e *explorer) progress() {
	done := e.done.Add(1)
	if e.cfg.Progress != nil {
		e.cfg.Progress(int(done), int(e.planned.Load()))
	}
}
