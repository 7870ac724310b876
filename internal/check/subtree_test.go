package check

import (
	"context"
	"reflect"
	"testing"
	"time"

	"easeio/internal/experiments"
	"easeio/internal/kernel"
)

// TestSubtreePipelineMatchesRun pins the distributed nested checker's
// soundness argument at the package level: plan level 1 locally, split
// the seed list into contiguous groups, grow each group's subtrees in a
// separate RunSubtree (its own golden pass, like a remote worker),
// merge, and assemble — the report must be deep-equal to the in-process
// checker's, for every runtime, divergence-free or not.
func TestSubtreePipelineMatchesRun(t *testing.T) {
	ctx := context.Background()
	// The sensor app rides along so the split also covers freshness
	// state: its stale-serve record must survive the root checkpoints'
	// extra restore hop and still fold into identical Timely counts.
	for _, app := range []struct {
		name    string
		factory experiments.AppFactory
	}{
		{"fig6", Fig6Bench},
		{"sensor", sensorFactory},
	} {
		for _, kind := range allKinds {
			app, kind := app, kind
			t.Run(app.name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Failures: 2, Workers: 2}
				want, err := Run(ctx, app.factory, kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				np, err := PlanNested(ctx, app.factory, kind, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// EaseIO-style runtimes collapse fig6's level-1 frontier to a
				// single representative; the 3-way split then degenerates to
				// empty groups plus one, which is itself worth pinning. The
				// baseline runtimes (Alpaca, InK) keep several seeds and
				// exercise the real multi-group merge.
				t.Logf("%d level-1 seeds", len(np.Seeds))
				const groups = 3
				var parts []SubtreeReport
				n := len(np.Seeds)
				for p := 0; p < groups; p++ {
					lo, hi := p*n/groups, (p+1)*n/groups
					rep, err := RunSubtree(ctx, app.factory, kind, cfg, np.Seeds[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, *rep)
				}
				got := np.Report(MergeSubtrees(parts))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("assembled report differs from in-process run:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestRunSubtreeEmptyRoots pins the degenerate contract: an empty group
// is a complete, empty report — workers never error on it.
func TestRunSubtreeEmptyRoots(t *testing.T) {
	rep, err := RunSubtree(context.Background(), Fig6Bench, allKinds[2],
		Config{Failures: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Depths) != 0 || len(rep.Divergences) != 0 {
		t.Fatalf("empty roots produced a non-empty report: %+v", rep)
	}
}

// TestNestedEntriesNeedCheckpoints pins that the distributed nested
// entry points refuse what they cannot shard — Config.FromBoot, and a
// runtime without snapshot and reset support — with an error rather
// than a fallback plan shape.
func TestNestedEntriesNeedCheckpoints(t *testing.T) {
	ctx := context.Background()
	opaque := func() kernel.Hooks {
		return struct{ kernel.Hooks }{experiments.NewRuntime(experiments.EaseIO)}
	}
	roots := []SubtreeSeed{{Schedule: []time.Duration{time.Millisecond}}}
	for name, cfg := range map[string]Config{
		"from boot":    {Failures: 2, FromBoot: true},
		"no snapshots": {Failures: 2, NewRuntime: opaque},
	} {
		if _, err := PlanNested(ctx, Fig6Bench, experiments.EaseIO, cfg); err == nil {
			t.Errorf("%s: PlanNested planned a nested check", name)
		}
		if _, err := RunSubtree(ctx, Fig6Bench, experiments.EaseIO, cfg, roots); err == nil {
			t.Errorf("%s: RunSubtree grew subtrees", name)
		}
	}
}
