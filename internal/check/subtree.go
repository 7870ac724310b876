// The distributed nested checker's three entry points. A coordinator
// splits a k > 1 job at the level-1 frontier: PlanNested runs the golden
// pass and the full level-1 exploration locally and returns the
// expansion representatives with their root checkpoints; RunSubtree is
// the worker half, growing the subtrees of a contiguous group of those
// roots; MergeSubtrees reassembles the groups' results into the exact
// depth-major order the in-process checker books.
//
// The split is sound because exploreFrontier is breadth-first and
// subtrees never share state: the global depth-d frontier is the
// concatenation, in representative order, of each group's own depth-d
// frontier, so a group explored on its own produces the global
// (depth, node, candidate) order restricted to the group. Collapse
// run-lengths must travel with the representatives — the in-process
// checker books a node's collapsed siblings when it expands the node,
// which now happens on a worker that never saw the level-1 outcomes.

package check

import (
	"context"
	"fmt"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// SubtreeSeed is one level-1 expansion representative: the failure
// prefix that reached it, how many hash-equal evaluated siblings it
// stands for, and the device+runtime checkpoint at its cut. Dev and RT
// are owned by the caller (never recycled into the checkpoint pool), so
// they stay valid for wire encoding after PlanNested returns.
type SubtreeSeed struct {
	Schedule  []time.Duration
	Collapsed int
	Dev       *kernel.Checkpoint
	RT        any // the runtime's kernel.Snapshotter state at the same cut
}

// NestedPlan is PlanNested's result: the plan header, the completed
// level-1 exploration, and the subtree seeds whose expansion remains.
type NestedPlan struct {
	Plan *Plan

	// Explored/Divergences are the level-1 exploration's results,
	// exactly as a k=1 Run over the same range would report them.
	Explored    int
	Divergences []Divergence

	// Seeds are the depth-2 expansion roots in candidate order. Empty
	// means the level-1 exploration left nothing to expand — the job is
	// complete.
	Seeds []SubtreeSeed
}

// nestedConfig fills and validates cfg for the distributed nested entry
// points, which need at least two failures.
func nestedConfig(cfg Config, entry string) (Config, error) {
	cfg = cfg.fill()
	if err := ValidateFailures(cfg.Failures); err != nil {
		return cfg, err
	}
	if cfg.Failures < 2 {
		return cfg, fmt.Errorf("check: %s needs Failures >= 2, have %d", entry, cfg.Failures)
	}
	return cfg, nil
}

// checkpointedExplorer is explorer for the distributed nested entry
// points, whose subtree roots are checkpoints: a runtime without
// snapshot and reset support, or Config.FromBoot, is an error here
// rather than a from-boot fallback.
func (pl *planned) checkpointedExplorer() (*explorer, error) {
	e := pl.explorer()
	if e.fromBoot {
		return nil, fmt.Errorf("check: runtime %s cannot run a distributed nested check (FromBoot set, or no snapshot and reset support)",
			pl.plan.Runtime)
	}
	return e, nil
}

// PlanNested runs the coordinator half of a distributed nested check:
// the golden pass plus the full level-1 exploration, returning the
// level-1 results and the depth-2 roots to farm out. The level-1 range
// is never sharded — nestedPlan selects representatives from outcomes
// across the whole range, exactly like the in-process checker.
func PlanNested(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (np *NestedPlan, err error) {
	defer recoverPanic(&err, "check under "+kind.String())
	if cfg, err = nestedConfig(cfg, "PlanNested"); err != nil {
		return nil, err
	}
	pl, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return nil, err
	}
	e, err := pl.checkpointedExplorer()
	if err != nil {
		return nil, err
	}
	np = &NestedPlan{Plan: pl.plan}
	results, err := e.explore(ctx)
	np.Explored, np.Divergences = level1Divergences(results, pl.cuts)
	if err != nil {
		return np, err
	}

	// The depth-2 frontier, with root checkpoints recorded in one extra
	// golden pass. The checkpoints leave the recording pool for good:
	// they belong to the caller until the workers' replays are done.
	frontier, err := e.level1Frontier(results)
	if err != nil {
		return np, err
	}
	np.Seeds = make([]SubtreeSeed, len(frontier))
	for i, node := range frontier {
		np.Seeds[i] = SubtreeSeed{
			Schedule:  node.schedule,
			Collapsed: node.collapsed,
			Dev:       node.root.dev,
			RT:        node.root.rt,
		}
	}
	return np, nil
}

// Report assembles the full checker report described by this plan plus
// the merged subtree results of its seeds (MergeSubtrees of the groups'
// reports), through Plan.Report: what Run would have returned.
func (np *NestedPlan) Report(sub SubtreeReport) *Report {
	return np.Plan.Report(np.Explored, np.Divergences, sub)
}

// SubtreeReport is one group's share of the nested exploration: the
// per-depth stats and divergences of its roots' subtrees, in the same
// (depth, node, candidate) order exploreFrontier books in process.
type SubtreeReport struct {
	Depths      []DepthStats
	Divergences []Divergence
}

// RunSubtree is the worker half of a distributed nested check: it
// recomputes the golden reference locally (the golden pass is
// deterministic, so only the roots need shipping), then grows the given
// roots' subtrees from depth 2 down to cfg.Failures. The roots must be
// a contiguous group of a PlanNested seed list, in seed order, and cfg
// must match the planning configuration.
func RunSubtree(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config, roots []SubtreeSeed) (sub *SubtreeReport, err error) {
	defer recoverPanic(&err, "check under "+kind.String())
	if cfg, err = nestedConfig(cfg, "RunSubtree"); err != nil {
		return nil, err
	}
	if len(roots) == 0 {
		return &SubtreeReport{}, nil
	}
	pl, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return nil, err
	}
	e, err := pl.checkpointedExplorer()
	if err != nil {
		return nil, err
	}
	frontier := make([]treeNode, len(roots))
	for i, r := range roots {
		frontier[i] = treeNode{
			schedule:  append([]time.Duration(nil), r.Schedule...),
			root:      &checkpoint{dev: r.Dev, rt: r.RT},
			collapsed: r.Collapsed,
		}
	}
	res, err := e.exploreFrontier(ctx, frontier, 2)
	return &res, err
}

// MergeSubtrees reassembles subtree reports — one per contiguous root
// group, in group order — into the depth-major order the in-process
// checker produces: for each depth, the per-depth stats are summed and
// the groups' depth-d divergences are concatenated in group order. A
// depth appears iff some group reached it, and every group's depth list
// is contiguous from 2, so the union is contiguous too.
func MergeSubtrees(parts []SubtreeReport) SubtreeReport {
	var out SubtreeReport
	byDepth := make(map[int]*DepthStats)
	maxDepth := 0
	for _, p := range parts {
		for _, ds := range p.Depths {
			agg := byDepth[ds.Depth]
			if agg == nil {
				agg = &DepthStats{Depth: ds.Depth}
				byDepth[ds.Depth] = agg
			}
			agg.Expanded += ds.Expanded
			agg.Collapsed += ds.Collapsed
			agg.Candidates += ds.Candidates
			agg.Explored += ds.Explored
			agg.Pruned += ds.Pruned
			if ds.Depth > maxDepth {
				maxDepth = ds.Depth
			}
		}
	}
	for d := 2; d <= maxDepth; d++ {
		agg := byDepth[d]
		if agg == nil {
			continue
		}
		out.Depths = append(out.Depths, *agg)
		for _, p := range parts {
			for _, dv := range p.Divergences {
				if len(dv.Schedule) == d {
					out.Divergences = append(out.Divergences, dv)
				}
			}
		}
	}
	return out
}

// clampRange clamps the configured candidate-index range against the
// candidate count, exactly as Run does.
func clampRange(cfg Config, candidates int) (lo, hi int) {
	lo, hi = cfg.CutLo, cfg.CutHi
	if lo < 0 {
		lo = 0
	}
	if hi <= 0 || hi > candidates {
		hi = candidates
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
