// Workload inputs: each workload is a pool of job specs generated from
// the workload seed, run in whole cycles of one seed-shuffled order, and
// the reference output of every spec computed in process before the
// measured window opens.

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/service"
	"easeio/internal/wire"
)

// The workloads. BENCHMARK.json gates sweep-long and fleet-check;
// fleet-sweep-short is run by hand (see README.md).
var workloadNames = []string{"sweep-long", "fleet-sweep-short", "fleet-check"}

// runtimes is the compared runtime set of every workload.
var runtimes = []string{"EaseIO", "Alpaca", "InK", "JustDo"}

// sweepLongRuns fixes each app's seed count in sweep-long so that every
// call costs a comparable share of host time (about 20 ms on two
// simulation threads of a 2-vCPU Xeon): op-bodied and closure-bodied
// apps then weigh alike.
var sweepLongRuns = map[string]int{
	"temp": 16000, "sensor": 16000, "branch": 16000,
	"lea": 8000, "dma": 3500,
	"fir": 240, "fir-op": 240,
	"weather": 320, "weather-db": 320,
}

// paperApps are the registered paper apps (service.RegisterPaperBenches).
var paperApps = []string{"branch", "dma", "fir", "fir-op", "lea", "sensor", "temp", "weather", "weather-db"}

// fastApps are fleet-sweep-short's apps: per-run simulation is cheap, so
// setup and fleet work dominate a job.
var fastApps = []string{"dma", "temp", "sensor", "lea", "branch"}

// nestedCells are the fleet-check cells whose nested frontier expands
// (more than one subtree root at depth 2), with their depth k.
var nestedCells = []struct {
	app, runtime string
	k            int
}{
	{"sensor", "EaseIO", 3}, {"sensor", "JustDo", 3}, {"branch", "Alpaca", 3},
	{"fir", "Alpaca", 3}, {"fir", "InK", 3}, {"fir", "JustDo", 3},
	{"weather", "Alpaca", 2}, {"weather", "InK", 2}, {"weather", "JustDo", 2},
}

// jobSpec is one job a client submits.
type jobSpec struct {
	Mode     string // "sweep" or "check"
	App      string
	Runtime  string
	Runs     int   // sweep: seeded runs
	Seed     int64 // sweep: base seed; check: the replayed seed
	Failures int   // check: depth k
}

// key identifies the spec in shard messages (worker-side attribution).
func (s jobSpec) key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", s.Mode, s.App, s.Runtime, s.Seed, s.Failures)
}

// plan is a workload's generated input.
type plan struct {
	workload string
	clients  int
	pool     []jobSpec
	// orders[c] is cycle c's job order (cycles past the last reuse them
	// round robin): a fresh seed-shuffled permutation of the pool per
	// cycle, so a window averages over which jobs run concurrently.
	orders [][]int
	// refs[i] is the wire encoding of pool[i]'s in-process result (a
	// stats.Summary or a check.Report); work[i] counts its simulated runs
	// (seeded runs, or failure points explored at every depth).
	refs [][]byte
	work []int
}

// makePlan generates the workload's pool from the seed.
func makePlan(workload string, seed int64, tiny bool) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload, clients: 2}
	seeds := make(map[int64]bool)
	drawSeed := func() int64 { // distinct, so every spec key is unique
		for {
			s := 1 + rng.Int63n(1<<20)
			if !seeds[s] {
				seeds[s] = true
				return s
			}
		}
	}
	switch workload {
	case "sweep-long":
		p.clients = 1 // one caller; RunMany fans out over two workers
		names := paperApps
		if tiny {
			names = []string{"dma", "fir"}
		}
		for _, app := range names {
			for _, rt := range runtimes {
				runs := sweepLongRuns[app]
				if tiny {
					runs = 8
				}
				p.pool = append(p.pool, jobSpec{Mode: "sweep", App: app, Runtime: rt, Runs: runs, Seed: drawSeed()})
			}
		}
	case "fleet-sweep-short":
		perCell := 3
		apps := fastApps
		if tiny {
			perCell, apps = 1, []string{"dma", "sensor"}
		}
		for _, app := range apps {
			for _, rt := range runtimes {
				for i := 0; i < perCell; i++ {
					// Stratified: the i-th spec of a cell draws from the
					// i-th of perCell equal slices of [32, 256], so every
					// seed's pool holds about the same amount of work.
					lo, width := 32+i*(256-32+1)/perCell, (256-32+1)/perCell
					runs := lo + rng.Intn(width)
					if tiny {
						runs = 32
					}
					p.pool = append(p.pool, jobSpec{Mode: "sweep", App: app, Runtime: rt, Runs: runs, Seed: drawSeed()})
				}
			}
		}
	case "fleet-check":
		apps := paperApps
		if tiny {
			apps = []string{"temp"}
		}
		for _, app := range apps {
			for _, rt := range runtimes {
				p.pool = append(p.pool, jobSpec{Mode: "check", App: app, Runtime: rt, Seed: drawSeed(), Failures: 1})
			}
		}
		for _, c := range nestedCells {
			if tiny && c.app != "sensor" {
				continue
			}
			p.pool = append(p.pool, jobSpec{Mode: "check", App: c.app, Runtime: c.runtime, Seed: drawSeed(), Failures: c.k})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	p.orders = make([][]int, orderCycles)
	for c := range p.orders {
		p.orders[c] = rng.Perm(len(p.pool))
	}
	return p, nil
}

// orderCycles is the number of distinct cycle orders a plan draws.
const orderCycles = 64

// job returns the pool index of the i-th job of a window.
func (p *plan) job(i int) int {
	n := len(p.pool)
	return p.orders[(i/n)%len(p.orders)][i%n]
}

// computeRefs runs every spec once through the in-process engine: the
// reference each fleet result must equal byte for byte, and for
// sweep-long (where the engine is the system under test) a
// single-worker run that the two-worker calls must reproduce.
func (p *plan) computeRefs(reg *service.Registry) error {
	p.refs = make([][]byte, len(p.pool))
	p.work = make([]int, len(p.pool))
	for i, s := range p.pool {
		factory, ok := reg.LookupFactory(s.App)
		if !ok {
			return fmt.Errorf("reference: unknown app %q", s.App)
		}
		kind, err := experiments.ParseRuntimeKind(s.Runtime)
		if err != nil {
			return err
		}
		switch s.Mode {
		case "sweep":
			sum, err := experiments.RunMany(experiments.Config{Runs: s.Runs, BaseSeed: s.Seed, Workers: 1}, factory, kind)
			if err != nil {
				return fmt.Errorf("reference %s: %w", s.key(), err)
			}
			p.refs[i] = wire.AppendSummary(nil, sum)
			p.work[i] = sum.Runs
		case "check":
			rep, err := check.Run(context.Background(), factory, kind, checkConfig(s))
			if err != nil {
				return fmt.Errorf("reference %s: %w", s.key(), err)
			}
			p.refs[i] = wire.AppendReport(nil, *rep)
			p.work[i] = pointsExplored(rep)
		}
	}
	return nil
}

// checkConfig is the exhaustive check a fleet check job runs.
func checkConfig(s jobSpec) check.Config {
	return check.Config{Seed: s.Seed, Failures: s.Failures, Exhaustive: true, Workers: 2}
}

// pointsExplored counts the failure points a report explored at every
// depth.
func pointsExplored(rep *check.Report) int {
	n := rep.Explored
	for _, d := range rep.Depths {
		n += d.Explored
	}
	return n
}

// digest fingerprints every simulated output of the workload: the
// references in pool order. A change that only speeds the code up
// leaves it unchanged.
func (p *plan) digest() string {
	h := sha256.New()
	for _, r := range p.refs {
		h.Write(wire.AppendUvarint(nil, uint64(len(r))))
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
