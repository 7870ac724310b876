// Nested-failure exploration: the checkpoint tree.
//
// A k-failure schedule is built level by level: the first failure lands
// on a golden-run charge-slice boundary, and every further failure lands
// on a boundary of the *previous* failure's recovery trajectory. The
// tree's nodes are passing schedules; expanding a node means tracing its
// recovery trajectory once to enumerate the next level's candidates,
// then replaying each candidate from a checkpoint captured along that
// trajectory (the node's subtree shares the trajectory the way level-1
// replays share the golden prefix).
//
// Two pruning rules keep the exponential space tractable:
//
//   - Diverging nodes are never expanded. A schedule whose prefix
//     already diverges adds no information — the prefix is a shorter
//     failing schedule, and the report's Minimal field wants the
//     shortest one.
//
//   - Identical outcomes collapse their subtrees. Within a level, each
//     maximal run of consecutive evaluated passing points with equal
//     outcome hashes is expanded through its first member only; the
//     outcome hash covers every non-time-sensitive memory word, the
//     verdict, the failure count and the staleness record, so
//     hash-equal siblings resume from observably equivalent states and
//     their subtrees are explored once.
//
// Node selection (nestedPlan) is a pure function of the level's
// outcomes, and outcomes are worker-invariant, so the tree — and the
// report — remains byte-identical across worker counts.

package check

import (
	"context"
	"time"
)

// nestedRep is one node selected for expansion: the first index of a
// maximal run of consecutive evaluated passing points with equal
// outcome hashes, plus how many evaluated siblings it stands for.
type nestedRep struct {
	idx       int
	collapsed int
}

// nestedPlan selects the expansion representatives among a level's
// outcomes over the candidate-index range [lo, hi). It is a pure
// function of the outcomes — the property FuzzNestedScheduleEnumeration
// pins — and returns representatives in ascending index order.
func nestedPlan(out []outcome, lo, hi int) []nestedRep {
	if lo < 0 {
		lo = 0
	}
	if hi > len(out) {
		hi = len(out)
	}
	var reps []nestedRep
	open := false   // a run of equal-hash passing points is open
	var hash uint64 // its outcome hash
	for i := lo; i < hi; i++ {
		o := out[i]
		if !o.evaluated {
			continue // unevaluated (cancelled) points belong to the enclosing run
		}
		if o.div != nil {
			open = false // diverging points break runs and never expand
			continue
		}
		if open && o.hash == hash {
			reps[len(reps)-1].collapsed++
			continue
		}
		reps = append(reps, nestedRep{idx: i})
		open, hash = true, o.hash
	}
	return reps
}

// treeNode is one schedule selected for expansion: a failure prefix
// whose replay passed, plus (in checkpointed mode) the checkpoint at its
// last cut — the root its subtree's recording passes resume from.
type treeNode struct {
	schedule  []time.Duration
	root      *checkpoint // nil in from-boot mode
	collapsed int
}

// exploreNested grows the checkpoint tree below the level-1 outcomes up
// to Config.Failures levels. On cancellation or a hard replay error it
// returns what was found so far plus the error.
func (e *explorer) exploreNested(ctx context.Context, level1 []outcome) (SubtreeReport, error) {
	frontier, err := e.level1Frontier(level1)
	if err != nil {
		return SubtreeReport{}, err
	}
	return e.exploreFrontier(ctx, frontier, 2)
}

// exploreFrontier runs the breadth-first tree growth over an initial
// frontier whose nodes sit at startDepth. It is the whole nested
// exploration below level 1: exploreNested seeds it with the level-1
// representatives, and the distributed checker's subtree shards seed it
// with a contiguous group of those representatives — because the loop
// books stats and divergences strictly in (depth, node, candidate)
// order, a frontier split into contiguous groups explored separately
// reproduces, per depth and in group order, exactly what the whole
// frontier produces.
func (e *explorer) exploreFrontier(ctx context.Context, frontier []treeNode, startDepth int) (SubtreeReport, error) {
	var res SubtreeReport
	if len(frontier) == 0 {
		return res, nil
	}
	if e.tracer == nil {
		t, err := newReplayer(e.newApp, e.newRT, e.golden, e.cfg, e.fromBoot)
		if err != nil {
			return res, err
		}
		e.tracer = t
	}

	for depth := startDepth; depth <= e.cfg.Failures && len(frontier) > 0; depth++ {
		ds := DepthStats{Depth: depth}
		var next []treeNode
		for _, node := range frontier {
			if err := ctx.Err(); err != nil {
				res.Depths = append(res.Depths, ds)
				return res, err
			}
			ds.Expanded++
			ds.Collapsed += node.collapsed
			children, err := e.expand(ctx, node, depth, &ds, &res)
			if err != nil {
				res.Depths = append(res.Depths, ds)
				return res, err
			}
			if depth < e.cfg.Failures {
				next = append(next, children...)
			}
			if node.root != nil {
				ckptRecycle(map[int]*checkpoint{0: node.root})
				node.root = nil
			}
		}
		res.Depths = append(res.Depths, ds)
		frontier = next
	}
	return res, nil
}

// level1Frontier selects the depth-2 expansion nodes from the level-1
// outcomes and, in checkpointed mode, records their root checkpoints in
// one extra golden pass.
func (e *explorer) level1Frontier(level1 []outcome) ([]treeNode, error) {
	reps := nestedPlan(level1, e.lo, e.hi)
	if len(reps) == 0 {
		return nil, nil
	}
	var roots map[int]*checkpoint
	if e.rec != nil {
		idxs := make([]int, len(reps))
		for i, rp := range reps {
			idxs[i] = rp.idx
		}
		var err error
		if roots, err = e.rec.record(e.cuts, idxs); err != nil {
			return nil, err
		}
	}
	frontier := make([]treeNode, 0, len(reps))
	for _, rp := range reps {
		frontier = append(frontier, treeNode{
			schedule:  []time.Duration{e.cuts[rp.idx]},
			root:      roots[rp.idx], // nil in from-boot mode
			collapsed: rp.collapsed,
		})
	}
	return frontier, nil
}

// expand explores one node's subtree: it traces the node's recovery
// trajectory to enumerate the next level's candidates, replays every one
// of them, books the accounting and divergences into ds/res, and
// returns the subtree's own expansion nodes for the level below.
func (e *explorer) expand(ctx context.Context, node treeNode, depth int, ds *DepthStats, res *SubtreeReport) ([]treeNode, error) {
	var suffix []time.Duration
	var err error
	if node.root != nil {
		suffix, err = e.tracer.traceFrom(node.root, node.schedule)
	} else {
		suffix, err = e.tracer.traceBoot(node.schedule)
	}
	if err != nil {
		return nil, err
	}
	ds.Candidates += len(suffix)
	if len(suffix) == 0 {
		return nil, nil
	}

	var record recordFn
	if node.root != nil {
		record = func(cuts []time.Duration, idxs []int) (map[int]*checkpoint, error) {
			return e.tracer.recordSuffix(node.root, node.schedule, cuts, idxs)
		}
	}
	out, err := e.exploreRange(ctx, suffix, 0, len(suffix), node.schedule, record)
	explored := 0
	for i, o := range out {
		if !o.evaluated {
			continue
		}
		explored++
		if o.div != nil {
			d := *o.div
			d.Index = i
			d.At = suffix[i]
			d.Schedule = append(append([]time.Duration(nil), node.schedule...), suffix[i])
			res.Divergences = append(res.Divergences, d)
		}
	}
	ds.Explored += explored
	if err != nil {
		return nil, err
	}
	if depth >= e.cfg.Failures {
		return nil, nil
	}

	// The level below: representatives of this subtree, rooted at
	// checkpoints re-recorded along the same trajectory (the eval
	// chunks' checkpoints are already recycled).
	reps := nestedPlan(out, 0, len(suffix))
	if len(reps) == 0 {
		return nil, nil
	}
	var roots map[int]*checkpoint
	if node.root != nil {
		idxs := make([]int, len(reps))
		for i, rp := range reps {
			idxs[i] = rp.idx
		}
		if roots, err = e.tracer.recordSuffix(node.root, node.schedule, suffix, idxs); err != nil {
			return nil, err
		}
	}
	children := make([]treeNode, 0, len(reps))
	for _, rp := range reps {
		children = append(children, treeNode{
			schedule:  append(append([]time.Duration(nil), node.schedule...), suffix[rp.idx]),
			root:      roots[rp.idx],
			collapsed: rp.collapsed,
		})
	}
	return children, nil
}
