// The worker side: ExecuteShard turns one encoded shard task into one
// encoded shard result using the in-process engines, and the loopback
// worker polls a coordinator in the same process — the testing and
// single-host deployment mode (cmd/easeio-worker drives the same
// ExecuteShard over TCP).

package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/rtbase"
	"easeio/internal/wire"
)

// ExecuteShard runs one shard task (a wire.SweepShard, wire.CheckShard,
// or wire.SubtreeShard message, dispatched on wire.PeekKind) and returns
// the encoded shard result. Per-run failures inside a sweep shard are not errors here —
// they travel inside the SweepResult exactly as the in-process engine
// folds them into its joined error. An error return means the shard
// itself could not run and should be failed back to the coordinator; a
// panic while running it is such an error (an experiments.PanicError),
// so a broken app or runtime fails its shard, never the worker.
func ExecuteShard(ctx context.Context, src BlueprintSource, task []byte) (_ []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = experiments.PanicError{Value: v, What: "shard task " + wire.PeekKind(task).String()}
		}
	}()
	switch kind := wire.PeekKind(task); kind {
	case wire.KindSweepShard:
		s, err := wire.DecodeSweepShard(task)
		if err != nil {
			return nil, err
		}
		factory, rt, err := resolve(src, s.App, s.Runtime)
		if err != nil {
			return nil, err
		}
		cfg := experiments.Config{Runs: s.Hi, BaseSeed: s.BaseSeed, Workers: s.Workers}
		agg, runErr := experiments.RunRangeAgg(ctx, cfg, factory, rt, s.Lo, s.Hi)
		if err := ctx.Err(); err != nil {
			// A partial fold must not ship: merged with full shards it
			// would silently change the job's result.
			return nil, err
		}
		if agg == nil {
			return nil, runErr
		}
		return wire.AppendSweepResult(nil, wire.SweepResult{
			Job: s.Job, Shard: s.Shard, Agg: agg.Export(), Errs: flattenErr(runErr),
		}), nil
	case wire.KindCheckShard:
		s, err := wire.DecodeCheckShard(task)
		if err != nil {
			return nil, err
		}
		factory, rt, err := resolve(src, s.App, s.Runtime)
		if err != nil {
			return nil, err
		}
		rep, err := check.Run(ctx, factory, rt, check.Config{
			Seed: s.Seed, Off: s.Off, Failures: s.Failures, FromBoot: s.FromBoot,
			CutLo: s.CutLo, CutHi: s.CutHi, Workers: s.Workers,
		})
		if err != nil {
			return nil, err
		}
		return wire.AppendCheckResult(nil, wire.CheckResult{
			Job: s.Job, Shard: s.Shard,
			Explored: rep.Explored, Pruned: rep.Pruned,
			Depths: rep.Depths, Divergences: rep.Divergences,
		}), nil
	case wire.KindSubtreeShard:
		s, err := wire.DecodeSubtreeShard(task)
		if err != nil {
			return nil, err
		}
		factory, rt, err := resolve(src, s.App, s.Runtime)
		if err != nil {
			return nil, err
		}
		roots := make([]check.SubtreeSeed, len(s.Roots))
		for i, r := range s.Roots {
			cp, err := wire.DecodeCheckpoint(r.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("fleet: subtree root %d: %w", i, err)
			}
			roots[i] = check.SubtreeSeed{
				Schedule:  r.Schedule,
				Collapsed: r.Collapsed,
				Dev:       cp,
				RT:        rtbase.ImportBaseState(r.RT),
			}
		}
		rep, err := check.RunSubtree(ctx, factory, rt, check.Config{
			Seed: s.Seed, Off: s.Off, Failures: s.Failures, Workers: s.Workers,
		}, roots)
		if err != nil {
			return nil, err
		}
		return wire.AppendSubtreeResult(nil, wire.SubtreeResult{
			Job: s.Job, Shard: s.Shard,
			Depths: rep.Depths, Divergences: rep.Divergences,
		}), nil
	default:
		return nil, fmt.Errorf("fleet: task is %v, want a shard", wire.PeekKind(task))
	}
}

// resolve maps a task's app and runtime names onto a factory and kind.
func resolve(src BlueprintSource, app, runtime string) (experiments.AppFactory, experiments.RuntimeKind, error) {
	if src == nil {
		return nil, 0, errors.New("fleet: worker has no blueprint source")
	}
	factory, ok := src.LookupFactory(app)
	if !ok {
		return nil, 0, fmt.Errorf("fleet: worker does not know app %q", app)
	}
	kind, err := experiments.ParseRuntimeKind(runtime)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: %w", err)
	}
	return factory, kind, nil
}

// flattenErr splits a joined sweep error back into per-run strings, the
// form the SweepResult carries over the wire.
func flattenErr(err error) []string {
	if err == nil {
		return nil
	}
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		var out []string
		for _, e := range u.Unwrap() {
			out = append(out, flattenErr(e)...)
		}
		return out
	}
	return []string{err.Error()}
}

// RunLoopback polls the coordinator for shards, executes them, and
// reports results until ctx is cancelled. It returns nil on
// cancellation; any other return is a coordinator-side failure (WAL
// write errors surface here).
func RunLoopback(ctx context.Context, c *Coordinator, name string, src BlueprintSource, poll time.Duration) error {
	if poll <= 0 {
		poll = 20 * time.Millisecond
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		task, ok, err := c.Lease(name)
		if err != nil {
			return err
		}
		if !ok {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(poll):
			}
			continue
		}
		result, execErr := ExecuteShard(ctx, src, task)
		if execErr != nil {
			if ctx.Err() != nil {
				// A cancellation mid-shard is not a shard failure: drop the
				// lease and let the TTL recycle it.
				return nil
			}
			job, shard, _, idErr := wire.ShardIDs(task)
			if idErr != nil {
				return idErr
			}
			if err := c.FailShard(name, job, shard, execErr.Error()); err != nil {
				return err
			}
			continue
		}
		if err := c.Complete(name, result); err != nil {
			return err
		}
	}
}
