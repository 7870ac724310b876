// Package check is the failure-point model checker: for one app×runtime
// blueprint it (1) runs a golden continuous-power pass that enumerates
// every charge-slice boundary — the candidate failure points — through
// the kernel's CutSink hook, (2) replays the run with a single power
// failure injected at each explored candidate over a deterministic
// power.Schedule, and (3) differentially compares each replay's final
// non-volatile memory, CheckOutput verdict and work-split ledger against
// the golden run, reporting a minimal failing schedule on divergence.
//
// Exploration is exhaustive (see explore.go): every candidate failure
// point is replayed, so a pass means the run equals the continuous one
// at every point a failure could land.
//
// The checker is deterministic: the same blueprint and config produce a
// byte-identical Report regardless of Workers or scheduling.
package check

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// MaxFailures caps the nested-failure exploration depth. Each level
// multiplies the schedule space by the suffix cut count; beyond a few
// levels even the collapsed tree stops being tractable, and no
// correctness argument in the paper needs more than
// failure-during-recovery-during-recovery. Surfaces that accept a depth
// (the -k flag, the service's "failures" field) validate against this
// cap with ValidateFailures.
const MaxFailures = 4

// ValidateFailures reports whether k is a usable exploration depth:
// at least one failure per schedule, at most MaxFailures.
func ValidateFailures(k int) error {
	if k < 1 || k > MaxFailures {
		return fmt.Errorf("check: failure depth %d out of range [1, %d]", k, MaxFailures)
	}
	return nil
}

// Config parameterizes one checker run.
type Config struct {
	// Seed drives the golden run and every replay (peripheral processes
	// are pure functions of wall-clock time and this seed).
	Seed int64
	// Failures is the nested-failure exploration depth k: every explored
	// schedule injects up to this many failures, each landing on a
	// charge-slice boundary of the previous failure's recovery
	// trajectory. 0 defaults to 1 — the single-failure checker. Depths
	// above MaxFailures are rejected.
	Failures int
	// Off is the recharge duration of the injected failure (defaults to
	// power.Schedule's 1 ms).
	Off time.Duration
	// Exhaustive is a no-op kept for existing callers: every check
	// replays every candidate cut point.
	Exhaustive bool
	// FromBoot forces every replay to re-simulate from boot instead of
	// restoring a checkpoint of the golden prefix and simulating only
	// the post-failure suffix. The two modes produce byte-identical
	// reports; from-boot is the O(run) escape hatch kept for
	// cross-validation and for runtimes that do not implement
	// kernel.Snapshotter and kernel.Resetter (which fall back to it
	// automatically).
	FromBoot bool
	// Workers bounds parallel replays (defaults to GOMAXPROCS). The
	// Report is worker-count-invariant.
	Workers int
	// CutLo/CutHi restrict exploration to the candidate-index range
	// [CutLo, CutHi) — the distributed checker's shard unit. CutHi == 0
	// means "through the last candidate"; out-of-range bounds clamp.
	// Shard reports merged in range order reproduce the unsharded report.
	CutLo, CutHi int
	// NewRuntime overrides the runtime instance factory, e.g. to check an
	// ablated EaseIO configuration. Defaults to experiments.NewRuntime of
	// the kind passed to Run.
	NewRuntime func() kernel.Hooks
	// Label overrides the runtime name recorded in the Report (useful
	// together with NewRuntime); defaults to the kind's String.
	Label string
	// Progress, when non-nil, is invoked after every evaluated point with
	// the cumulative explored count and the planned count so far. It may
	// be called from any worker goroutine.
	Progress func(explored, planned int)
}

func (c Config) fill() Config {
	if c.Failures <= 0 {
		c.Failures = 1
	}
	if c.Off <= 0 {
		c.Off = time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// golden is the continuous-power reference every replay is compared
// against.
type golden struct {
	// onTime is the golden run's powered-on execution time.
	onTime time.Duration
	// correct is the golden CheckOutput verdict (true for every shipped
	// app: under continuous power nothing re-executes).
	correct bool
	// vars holds each variable's final committed words, indexed like
	// App.Vars.
	vars [][]uint16
	// sensed marks variables excluded from the word-for-word comparison
	// (see task.NVVar.TimeSensitive).
	sensed []bool
	// hasFresh gates the freshness oracle: the staleness record folds
	// into outcome hashes only for apps declaring freshness bounds, so
	// untagged apps keep the hashes — and the nested collapse decisions
	// built on them — of the pre-oracle checker.
	hasFresh bool
	// stale is the golden run's staleness-violation count. An app may be
	// inherently stale even under continuous power; replays are charged
	// only for violations beyond it.
	stale int
}

// cutRecorder collects every charge-slice boundary of the golden pass.
type cutRecorder struct{ cuts []time.Duration }

// NoteCut implements kernel.CutSink. On-time is strictly increasing
// across a run, so the slice arrives sorted and duplicate-free.
func (r *cutRecorder) NoteCut(onTime time.Duration) { r.cuts = append(r.cuts, onTime) }

// planned is a completed golden pass: the plan it yields, plus
// everything exploration needs after it.
type planned struct {
	plan   *Plan
	cfg    Config // filled
	newApp experiments.AppFactory
	bench  *apps.Bench
	newRT  func() kernel.Hooks
	g      *golden
	cuts   []time.Duration
	dev    *kernel.Device
	rt     kernel.Hooks
}

// goldenPass fills and validates cfg, runs the continuous-power
// reference and enumerates the candidate failure points: the first step
// of every entry point, and the one place a Plan is built.
func goldenPass(newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (*planned, error) {
	cfg = cfg.fill()
	if err := ValidateFailures(cfg.Failures); err != nil {
		return nil, err
	}
	newRT := cfg.NewRuntime
	if newRT == nil {
		newRT = func() kernel.Hooks { return experiments.NewRuntime(kind) }
	}
	label := cfg.Label
	if label == "" {
		label = kind.String()
	}

	bench, err := newApp()
	if err != nil {
		return nil, fmt.Errorf("check: build app: %w", err)
	}
	rec := &cutRecorder{}
	sess := kernel.NewSession(newRT(), bench.App, power.Continuous{})
	sess.Cuts = rec
	grun, err := sess.Run(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("check: golden run of %s under %s: %w", bench.App.Name, label, err)
	}

	g := &golden{
		onTime:   grun.OnTime,
		correct:  grun.Correct,
		vars:     make([][]uint16, len(bench.App.Vars)),
		sensed:   make([]bool, len(bench.App.Vars)),
		hasFresh: bench.App.DeclaresFreshness(),
		stale:    len(grun.Stale),
	}
	dev, rt := sess.Device(), sess.Runtime()
	for i, v := range bench.App.Vars {
		g.sensed[i] = v.TimeSensitive
		words := make([]uint16, v.Words)
		for w := range words {
			words[w] = kernel.ReadVar(dev, rt, v, w)
		}
		g.vars[i] = words
	}
	p := &Plan{
		App:           bench.App.Name,
		Runtime:       label,
		Seed:          cfg.Seed,
		Off:           cfg.Off,
		Failures:      cfg.Failures,
		GoldenOnTime:  g.onTime,
		GoldenCorrect: g.correct,
		Candidates:    len(rec.cuts),
	}
	if p.Candidates == 0 {
		// Nothing to explore, and nothing to diverge: a run that never
		// crossed a charge-slice boundary has no point at which a power
		// failure could land. Say so explicitly instead of rendering a
		// confusingly empty pass.
		p.Note = noCandidatesNote
	}
	return &planned{plan: p, cfg: cfg, newApp: newApp, bench: bench, newRT: newRT, g: g, cuts: rec.cuts, dev: dev, rt: rt}, nil
}

// explorer sets up the exploration of the configured candidate range
// after the golden pass. Checkpointed replay needs the runtime to
// checkpoint its hook state and to reset in place for recording passes;
// runtimes that can't (and Config.FromBoot) replay from boot instead.
// The recorder re-runs recording passes on the golden session's own
// device, runtime and app — golden state was already copied out — so
// checkpointed mode costs no extra builds.
func (pl *planned) explorer() *explorer {
	lo, hi := clampRange(pl.cfg, len(pl.cuts))
	e := &explorer{cfg: pl.cfg, newApp: pl.newApp, newRT: pl.newRT, golden: pl.g, cuts: pl.cuts,
		lo: lo, hi: hi, fromBoot: true}
	_, canSnap := pl.rt.(kernel.Snapshotter)
	_, canReset := pl.rt.(kernel.Resetter)
	if !pl.cfg.FromBoot && canSnap && canReset {
		e.fromBoot = false
		e.rec = newRecorder(pl.bench, pl.rt, pl.dev, pl.cfg.Seed)
	}
	return e
}

// recoverPanic, deferred by every entry point, turns a panic in the app
// or runtime into an error wrapping experiments.PanicError, so it fails
// the check instead of the process hosting it (a service, a fleet
// worker, a coordinator planning a job). Replays on worker goroutines
// recover the same way in evalChunk.
func recoverPanic(err *error, what string) {
	if v := recover(); v != nil {
		*err = panicError(v, what)
	}
}

func panicError(v any, what string) error {
	return fmt.Errorf("check: %w", experiments.PanicError{Value: v, What: what})
}

// noCandidatesNote explains a zero-candidate report.
const noCandidatesNote = "no candidate failure points: the golden run never crossed a charge-slice boundary"

// Plan is the result of a golden pass alone: the report header fields
// plus the candidate count, everything a coordinator needs to shard a
// check job and reassemble the merged report without exploring anything
// itself.
type Plan struct {
	App      string
	Runtime  string
	Seed     int64
	Off      time.Duration
	Failures int

	GoldenOnTime  time.Duration
	GoldenCorrect bool

	// Candidates is the number of charge-slice boundaries the golden
	// pass enumerated; shard cut ranges partition [0, Candidates).
	Candidates int

	// Note carries the zero-candidate explanation when Candidates == 0.
	Note string
}

// Golden runs only the planning half of a checker job: the golden
// continuous-power pass that enumerates candidate failure points. The
// golden pass is deterministic, so a worker exploring a cut range of the
// same configuration reproduces exactly the candidates this plan counts.
func Golden(newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (p *Plan, err error) {
	defer recoverPanic(&err, "check under "+kind.String())
	pl, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return nil, err
	}
	return pl.plan, nil
}

// Report assembles the checker report this plan describes from explored
// results: explored and divs are the level-1 exploration's (divs in
// candidate order), sub the nested exploration below it (MergeSubtrees
// of the groups' reports; zero for k=1). Divergences list level 1 first,
// then sub's in depth-major order, and Minimal is picked across both.
// Run, NestedPlan.Report and the fleet's merge all build their reports
// here, which is what makes a merged report equal Run's.
func (p *Plan) Report(explored int, divs []Divergence, sub SubtreeReport) *Report {
	rep := &Report{
		App:           p.App,
		Runtime:       p.Runtime,
		Seed:          p.Seed,
		Off:           p.Off,
		Failures:      p.Failures,
		GoldenOnTime:  p.GoldenOnTime,
		GoldenCorrect: p.GoldenCorrect,
		Candidates:    p.Candidates,
		Explored:      explored,
		Note:          p.Note,
		Depths:        sub.Depths,
		Divergences:   append(append([]Divergence(nil), divs...), sub.Divergences...),
	}
	rep.Minimal = minimalSchedule(rep.Divergences)
	return rep
}

// Run model-checks one app×runtime blueprint: it enumerates the candidate
// failure points with a golden pass, explores them with single-failure
// replays (and, when Config.Failures > 1, grows a checkpoint tree of
// failure-during-recovery schedules below every passing point), and
// reports every divergence found. Cancelling ctx stops the exploration at
// the next point boundary and returns the partial report alongside ctx's
// error.
func Run(ctx context.Context, newApp experiments.AppFactory, kind experiments.RuntimeKind, cfg Config) (rep *Report, err error) {
	defer recoverPanic(&err, "check under "+kind.String())
	pl, err := goldenPass(newApp, kind, cfg)
	if err != nil {
		return nil, err
	}
	e := pl.explorer()
	results, err := e.explore(ctx)
	explored, divs := level1Divergences(results, pl.cuts)
	var sub SubtreeReport
	if pl.cfg.Failures > 1 && err == nil {
		sub, err = e.exploreNested(ctx, results)
	}
	return pl.plan.Report(explored, divs, sub), err
}

// level1Divergences counts the evaluated level-1 points and collects
// their divergences in candidate order.
func level1Divergences(results []outcome, cuts []time.Duration) (explored int, divs []Divergence) {
	for i, res := range results {
		if !res.evaluated {
			continue
		}
		explored++
		if res.div != nil {
			d := *res.div
			d.Index = i
			d.At = cuts[i]
			divs = append(divs, d)
		}
	}
	return explored, divs
}

// minimalSchedule picks the minimal failing schedule: fewest failures
// first, then earliest. Divergences arrive depth by depth and in
// candidate order within a depth, so the first divergence with the
// shortest schedule is the minimal one.
func minimalSchedule(divs []Divergence) []time.Duration {
	best := -1
	bestLen := 0
	for i, d := range divs {
		l := len(d.Schedule)
		if l == 0 {
			l = 1 // single-failure divergences carry the schedule in At
		}
		if best < 0 || l < bestLen {
			best, bestLen = i, l
		}
	}
	if best < 0 {
		return nil
	}
	if d := divs[best]; len(d.Schedule) > 0 {
		return append([]time.Duration(nil), d.Schedule...)
	}
	return []time.Duration{divs[best].At}
}

// outcome is one replay's classified result.
type outcome struct {
	evaluated bool
	hash      uint64
	div       *Divergence // nil when the replay matched golden
}

// replayer owns one worker's app instance and schedule. In from-boot
// mode it re-simulates the whole run per point through a session (the
// same blueprint/instance reuse path sweeps take); in checkpointed mode
// it restores a golden-prefix checkpoint into its own attached device
// and simulates only the post-failure suffix (kernel.ResumeWithFailure).
// Both modes classify identically, so the Report is byte-identical
// either way.
type replayer struct {
	bench  *apps.Bench
	sch    *power.Schedule
	golden *golden
	seed   int64

	// want is the number of failures the current schedule injects — the
	// ledger oracle's expected PowerFailures count.
	want int
	// sched is the scratch schedule buffer reused across evals.
	sched []time.Duration

	// from-boot mode
	sess *kernel.Session

	// checkpointed mode: a device with the blueprint attached, overwritten
	// by every restore.
	dev *kernel.Device
	rt  kernel.Hooks
}

func newReplayer(newApp experiments.AppFactory, newRT func() kernel.Hooks, g *golden, cfg Config, fromBoot bool) (*replayer, error) {
	bench, err := newApp()
	if err != nil {
		return nil, fmt.Errorf("check: build replay app: %w", err)
	}
	sch := power.NewScheduleWithOff(cfg.Off)
	r := &replayer{bench: bench, sch: sch, golden: g, seed: cfg.Seed}
	if fromBoot {
		r.sess = kernel.NewSession(newRT(), bench.App, sch)
		return r, nil
	}
	if err := bench.App.Validate(); err != nil {
		return nil, fmt.Errorf("check: replay app: %w", err)
	}
	rt := newRT()
	dev := kernel.NewDevice(sch, cfg.Seed)
	if err := rt.Attach(dev, bench.App); err != nil {
		return nil, fmt.Errorf("check: attach replay app: %w", err)
	}
	r.dev, r.rt = dev, rt
	return r, nil
}

// setSchedule loads the failure schedule (strictly ascending cut
// on-times) into the supply, reusing the FailAt backing array across
// evals.
func (r *replayer) setSchedule(schedule []time.Duration) {
	r.sch.FailAt = append(r.sch.FailAt[:0], schedule...)
	r.want = len(schedule)
}

// eval replays the run from boot with the given failure schedule and
// classifies the result against golden.
func (r *replayer) eval(schedule []time.Duration) outcome {
	r.setSchedule(schedule)
	run, err := r.sess.Run(r.seed)
	if err != nil {
		return r.classify(nil, nil, nil, err)
	}
	return r.classify(r.sess.Device(), r.sess.Runtime(), run, nil)
}

// evalFrom restores the checkpoint taken at the schedule's last cut —
// a golden-prefix checkpoint for single failures, a recovery-trajectory
// checkpoint deeper in the tree — applies the final injected failure,
// and simulates only the suffix. Restore re-establishes the schedule's
// fired-failure cursor for checkpoints recorded under a schedule supply
// (Reset's zero is correct for golden-prefix checkpoints, whose
// continuous-supply state does not restore into a Schedule).
func (r *replayer) evalFrom(cp *checkpoint, schedule []time.Duration) outcome {
	r.setSchedule(schedule)
	r.sch.Reset(0)
	r.dev.Restore(cp.dev)
	r.rt.(kernel.Snapshotter).RestoreState(r.dev, cp.rt)
	if err := kernel.ResumeWithFailure(r.dev, r.rt, r.bench.App); err != nil {
		return r.classify(nil, nil, nil, err)
	}
	return r.classify(r.dev, r.rt, r.dev.Run, nil)
}

// traceFrom replays a passing schedule's suffix like evalFrom, but with
// a cut recorder attached: it returns the charge-slice boundaries of the
// recovery trajectory after the schedule's last failure — the candidate
// points for the next failure level. cp must be the checkpoint at the
// schedule's last cut.
func (r *replayer) traceFrom(cp *checkpoint, schedule []time.Duration) ([]time.Duration, error) {
	rec := &cutRecorder{}
	r.setSchedule(schedule)
	r.sch.Reset(0)
	r.dev.Restore(cp.dev)
	r.rt.(kernel.Snapshotter).RestoreState(r.dev, cp.rt)
	r.dev.Cuts = rec
	err := kernel.ResumeWithFailure(r.dev, r.rt, r.bench.App)
	r.dev.Cuts = nil
	if err != nil {
		return nil, fmt.Errorf("check: suffix trace of schedule %v: %w", schedule, err)
	}
	return rec.cuts, nil
}

// traceBoot is traceFrom's from-boot twin: it replays the whole run with
// the schedule's failures injected and returns the boundaries strictly
// after the last failure (the resumed trajectory's cuts — the earlier
// ones belong to already-explored levels).
func (r *replayer) traceBoot(schedule []time.Duration) ([]time.Duration, error) {
	rec := &cutRecorder{}
	r.setSchedule(schedule)
	r.sess.Cuts = rec
	_, err := r.sess.Run(r.seed)
	r.sess.Cuts = nil
	if err != nil {
		return nil, fmt.Errorf("check: suffix trace of schedule %v: %w", schedule, err)
	}
	last := schedule[len(schedule)-1]
	cuts := rec.cuts
	i := 0
	for i < len(cuts) && cuts[i] <= last {
		i++
	}
	return cuts[i:], nil
}

// recordSuffix re-runs a passing schedule's recovery trajectory from its
// root checkpoint with a snapshotting sink, capturing one checkpoint per
// requested suffix-cut index — the nested twin of recorder.record, which
// does the same along the golden run. cuts is the trajectory's candidate
// list (from traceFrom) and idxs selects ascending entries of it.
func (r *replayer) recordSuffix(root *checkpoint, schedule []time.Duration, cuts []time.Duration, idxs []int) (map[int]*checkpoint, error) {
	sink := &snapSink{
		targets: make([]time.Duration, len(idxs)),
		idxs:    idxs,
		dev:     r.dev,
		rt:      r.rt.(kernel.Snapshotter),
		cps:     make(map[int]*checkpoint, len(idxs)),
	}
	sink.rtInto, _ = r.rt.(kernel.SnapshotterInto)
	for i, idx := range idxs {
		sink.targets[i] = cuts[idx]
	}

	r.setSchedule(schedule)
	r.sch.Reset(0)
	r.dev.Restore(root.dev)
	r.rt.(kernel.Snapshotter).RestoreState(r.dev, root.rt)
	r.dev.Cuts = sink
	err := kernel.ResumeWithFailure(r.dev, r.rt, r.bench.App)
	r.dev.Cuts = nil
	if err != nil {
		return nil, fmt.Errorf("check: suffix recording pass of schedule %v: %w", schedule, err)
	}
	if sink.next != len(sink.targets) {
		return nil, fmt.Errorf("check: suffix recording pass hit %d of %d cut points — recovery trajectory not reproducible",
			sink.next, len(sink.targets))
	}
	return sink.cps, nil
}

// classify compares one replay's final state against golden. The outcome
// hash covers the correctness verdict, the failure count, every
// non-time-sensitive memory word and the divergence kind — the
// equivalence the nested collapse relies on.
func (r *replayer) classify(dev *kernel.Device, rt kernel.Hooks, run *stats.Run, err error) outcome {
	if err != nil {
		return outcome{evaluated: true, hash: hashString("error:" + err.Error()),
			div: &Divergence{Kind: "error", Detail: err.Error()}}
	}

	// Manual FNV-1a over the header fields' little-endian bytes; the
	// memory words, which dominate, go through foldWords instead.
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	put := func(w uint16) {
		h = (h ^ uint64(w&0xff)) * fnvPrime
		h = (h ^ uint64(w>>8)) * fnvPrime
	}
	if run.Correct {
		put(1)
	} else {
		put(0)
	}
	put(uint16(run.PowerFailures))
	if r.golden.hasFresh {
		// The staleness record is observable state for freshness apps:
		// fold every violation (and the sample ages behind future ones)
		// so hash-equal outcomes really are freshness-equivalent.
		putDur := func(d time.Duration) {
			for s := 0; s < 64; s += 16 {
				put(uint16(d >> s))
			}
		}
		put(uint16(len(run.Stale)))
		for _, ev := range run.Stale {
			for i := 0; i < len(ev.Site); i++ {
				h = (h ^ uint64(ev.Site[i])) * fnvPrime
			}
			putDur(ev.Age)
			putDur(ev.Bound)
			putDur(ev.At)
		}
	}

	var div *Divergence
	for i, v := range r.bench.App.Vars {
		if r.golden.sensed[i] {
			continue
		}
		// One span per variable: the words are the ones kernel.ReadVar
		// would read one bounds-checked Read at a time, booked as the
		// same v.Words reads.
		s := dev.Mem.Span(rt.AddrOf(v), v.Words, "read")
		want := r.golden.vars[i]
		var diff uint64
		h, diff = foldWords(h, s.Words, want)
		s.Book(int64(v.Words), 0, 0)
		if diff != 0 && div == nil {
			w := firstDiff(s.Words, want)
			div = &Divergence{Kind: "memory", Detail: fmt.Sprintf(
				"%s[%d] = %d, want %d", v.Name, w, s.Words[w], want[w])}
		}
	}
	switch {
	case div != nil:
	case r.golden.correct && !run.Correct:
		div = &Divergence{Kind: "output", Detail: "CheckOutput failed (golden run is correct)"}
	case r.golden.hasFresh && len(run.Stale) > r.golden.stale:
		ev := run.Stale[r.golden.stale] // the first violation beyond golden's
		div = &Divergence{Kind: "timely", Detail: fmt.Sprintf(
			"Timely(Δt): %s consumed %v after its last sample (bound %v) at t=%v",
			ev.Site, ev.Age, ev.Bound, ev.At)}
	case run.PowerFailures != r.want:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"%d power failures booked, schedule injected %d", run.PowerFailures, r.want)}
	case sumWork(run) != run.OnTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"committed work %v does not account for on-time %v", sumWork(run), run.OnTime)}
	case run.OnTime < r.golden.onTime:
		div = &Divergence{Kind: "ledger", Detail: fmt.Sprintf(
			"on-time %v below the golden run's %v despite an injected failure",
			run.OnTime, r.golden.onTime)}
	}
	if div != nil {
		for i := 0; i < len(div.Kind); i++ {
			h = (h ^ uint64(div.Kind[i])) * fnvPrime
		}
	}
	return outcome{evaluated: true, hash: h, div: div}
}

// foldWords folds got into the outcome hash h and returns the OR of
// got XOR want over every word (zero exactly when got equals want). The
// hash only has to separate outcomes — it is compared for equality in
// memory, never stored — so instead of a byte-serial FNV chain (eight
// dependent multiplies per four words) it folds 64-bit chunks of four
// words through mix, in four independent lanes that merge at the end.
// Every step is a bijection of its lane for a fixed chunk and the merge
// is a bijection of each lane given the others, so two outcomes that
// differ in a single chunk never collide. Variable lengths are fixed per
// app, so the zero-padded tail chunk is unambiguous.
func foldWords(h uint64, got, want []uint16) (uint64, uint64) {
	var diff uint64
	if len(got) >= 16 {
		var l1, l2, l3 uint64
		for len(got) >= 16 && len(want) >= 16 {
			c0, c1, c2, c3 := chunk(got[0:4]), chunk(got[4:8]), chunk(got[8:12]), chunk(got[12:16])
			diff |= (c0 ^ chunk(want[0:4])) | (c1 ^ chunk(want[4:8])) |
				(c2 ^ chunk(want[8:12])) | (c3 ^ chunk(want[12:16]))
			h, l1, l2, l3 = mix(h^c0), mix(l1^c1), mix(l2^c2), mix(l3^c3)
			got, want = got[16:], want[16:]
		}
		h = mix(mix(mix(h^l1)^l2) ^ l3)
	}
	for len(got) > 0 && len(want) > 0 {
		var c, g uint64
		n := min(4, len(got), len(want))
		for k := 0; k < n; k++ {
			c |= uint64(got[k]) << (16 * k)
			g |= uint64(want[k]) << (16 * k)
		}
		diff |= c ^ g
		h = mix(h ^ c)
		got, want = got[n:], want[n:]
	}
	return h, diff
}

// chunk packs four words little-endian into one 64-bit value (a single
// load on little-endian targets).
func chunk(w []uint16) uint64 {
	_ = w[3]
	return uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48
}

// mix is foldWords' step: a multiply by an odd constant (2^64/φ) and an
// xor-shift that carries high-bit differences down into the bits later
// multiplies spread. Both are bijections.
func mix(h uint64) uint64 {
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// firstDiff returns the first index at which got and want differ; the
// caller has established that they do.
func firstDiff(got, want []uint16) int {
	for w := range got {
		if got[w] != want[w] {
			return w
		}
	}
	return len(got)
}

// sumWork totals the run's committed work buckets; with nothing pending
// it must equal the powered-on time exactly (the ledger invariant).
func sumWork(run *stats.Run) time.Duration {
	var t time.Duration
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		t += run.Work[b].T
	}
	return t
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
