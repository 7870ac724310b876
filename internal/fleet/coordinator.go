// The coordinator: plans submitted jobs into shards, leases shards to
// pulling workers, retries failures with backoff, revokes expired
// leases, and merges completed shards into the job's final result. Every
// state transition is WAL-logged before it takes effect (wal.go), and
// New replays the log so a restarted coordinator resumes mid-job: done
// shards stay done, leased-but-unfinished shards return to the pending
// queue (a lease is a hint, not a commitment — losing one costs only
// recomputation), and jobs whose shards all finished re-merge
// deterministically.

package fleet

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/rtbase"
	"easeio/internal/stats"
	"easeio/internal/wire"
)

// CoordinatorConfig configures New. Zero values take the defaults noted
// on each field.
type CoordinatorConfig struct {
	// WALPath is the job store's backing file (required).
	WALPath string
	// Source resolves app names when planning check jobs and when
	// re-planning after recovery (required for check jobs).
	Source BlueprintSource
	// LeaseTTL revokes a shard lease not completed in time (default 1m).
	LeaseTTL time.Duration
	// MaxAttempts fails the whole job after this many failed attempts of
	// any single shard (default 3).
	MaxAttempts int
	// RetryBackoff delays a failed shard's next lease, doubling per
	// attempt up to 8x (default 250ms).
	RetryBackoff time.Duration
	// DefaultShards is the shard count for specs that leave Shards zero
	// (default 4).
	DefaultShards int
	// Metrics, when non-nil, collects the fleet metric set.
	Metrics *Metrics
	// Now overrides the coordinator clock (lease expiry, backoff) for
	// tests. WAL fsync and merge latencies always use the real clock:
	// they measure the host, not the job timeline.
	Now func() time.Time
}

// validate rejects config values that are not just "use the default":
// a negative knob is a caller bug (a miscomputed worker count, a bad
// flag parse), and silently coercing it to the default would hide that
// until a job hangs with no shards. Zero still means "default".
func (c CoordinatorConfig) validate() error {
	if c.DefaultShards < 0 {
		return fmt.Errorf("fleet: DefaultShards %d is negative (0 means default)", c.DefaultShards)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("fleet: MaxAttempts %d is negative (0 means default)", c.MaxAttempts)
	}
	if c.LeaseTTL < 0 {
		return fmt.Errorf("fleet: LeaseTTL %v is negative (0 means default)", c.LeaseTTL)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("fleet: RetryBackoff %v is negative (0 means default)", c.RetryBackoff)
	}
	return nil
}

func (c CoordinatorConfig) fill() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.DefaultShards <= 0 {
		c.DefaultShards = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Shard lifecycle. A failed attempt returns the shard to shardPending
// (with backoff) until MaxAttempts, which fails the job.
type shardStatus int

const (
	shardPending shardStatus = iota
	shardLeased
	shardDone
)

// shardState is one shard's live state. lo/hi is the seed-index range
// (sweeps) or candidate cut range (checks).
type shardState struct {
	lo, hi      int
	st          shardStatus
	attempts    int // failed attempts so far
	worker      string
	leaseExpiry time.Time
	notBefore   time.Time // backoff gate on the next lease
	payload     []byte    // the encoded shard result once done
	// task is the pre-encoded task message for shards whose work unit
	// cannot be derived from the spec at lease time (subtree shards embed
	// root checkpoints recorded at plan time). Nil for range shards.
	task []byte
}

// job is one submitted job's live state.
type job struct {
	id   uint64
	spec Spec
	kind experiments.RuntimeKind

	planned bool
	plan    *check.Plan // check jobs: the golden pass's plan
	// level1 marks a subtree-sharded nested check and holds its
	// coordinator-side level-1 exploration (an encoded wire.CheckResult)
	// that the merge folds in ahead of the shards' subtree results.
	level1    []byte
	shards    []*shardState
	remaining int // shards not yet done

	submitted  time.Time
	firstLease time.Time // zero until the first shard lease

	finished bool
	// result is the finished job's outcome; a check job's report is
	// kept only packed (wire.PackReport) in report, and Wait decodes it.
	result Result
	report []byte
	err    error
	done   chan struct{} // closed when finished
}

// Coordinator is the fleet's job manager. All methods are safe for
// concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu    sync.Mutex
	wal   *wal
	jobs  map[uint64]*job
	order []uint64 // unfinished jobs in submission order, the lease scan order
	next  uint64
}

// New opens (or creates) the WAL at cfg.WALPath, replays it, and returns
// a coordinator resuming every unfinished job it finds there.
func New(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.fill()
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a WAL path")
	}
	var obsFsync func(time.Duration)
	if cfg.Metrics != nil {
		h := cfg.Metrics.WALFsync
		obsFsync = func(d time.Duration) { h.Observe("", d.Seconds()) }
	}
	w, recs, err := openWAL(cfg.WALPath, obsFsync)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, wal: w, jobs: make(map[uint64]*job)}
	for _, r := range recs {
		c.replay(r)
	}
	if err := c.recover(); err != nil {
		w.close()
		return nil, err
	}
	return c, nil
}

// Close releases the WAL. In-flight Wait calls are not interrupted.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.close()
}

// replay folds one recovered WAL record into the in-memory state. It is
// idempotent over duplicate records and tolerant of records for unknown
// jobs (a torn log can only lose a suffix, so those cannot happen from a
// crash; they would mean a foreign log, and are ignored rather than
// trusted).
func (c *Coordinator) replay(r record) {
	if r.Type == recSubmit {
		if _, ok := c.jobs[r.Job]; ok {
			return
		}
		j := &job{id: r.Job, spec: r.Spec, submitted: c.cfg.Now(), done: make(chan struct{})}
		j.kind, _ = experiments.ParseRuntimeKind(r.Spec.Runtime)
		c.jobs[r.Job] = j
		c.order = append(c.order, r.Job)
		if r.Job >= c.next {
			c.next = r.Job + 1
		}
		return
	}
	j, ok := c.jobs[r.Job]
	if !ok || j.finished {
		return
	}
	switch r.Type {
	case recPlan:
		if j.planned {
			return
		}
		if r.Plan != nil {
			r.Plan.Seed, r.Plan.Failures = j.spec.Seed, max(j.spec.Failures, 1)
		}
		c.installPlan(j, r)
	case recLease:
		// Leases do not survive a restart — the shard stays pending and
		// will be re-leased without an attempt increment. The record
		// still matters: the job's first-lease time is durable, so the
		// execution-deadline clock does not restart with the coordinator.
		if j.firstLease.IsZero() {
			j.firstLease = time.Unix(0, r.At)
		}
	case recShardDone:
		if r.Shard < 0 || r.Shard >= len(j.shards) {
			return
		}
		sh := j.shards[r.Shard]
		if sh.st == shardDone {
			return
		}
		sh.st = shardDone
		sh.payload = r.Payload
		j.remaining--
	case recShardFail:
		if r.Shard < 0 || r.Shard >= len(j.shards) {
			return
		}
		sh := j.shards[r.Shard]
		sh.attempts++
		// The backoff gate survives the restart: it is derived from the
		// journaled failure time, not the replay clock, so a coordinator
		// that restarts immediately after a failure does not hand the
		// still-broken shard straight back out. Records written before the
		// failure time was journaled (At == 0) decode to an epoch-based
		// gate in the past — an immediate re-lease, exactly the old
		// behavior.
		sh.notBefore = time.Unix(0, r.At).Add(c.retryBackoff(sh.attempts))
	case recJobDone:
		res, err := decodeResultPayload(j.spec.Mode, r.Payload)
		if err != nil {
			// The payload was CRC-checked and decoded at merge time; a
			// failure here means the format changed underneath the log.
			c.finish(j, Result{}, fmt.Errorf("fleet: recovering job %d result: %w", r.Job, err))
			return
		}
		res.Errs = r.Errs
		c.finish(j, res, nil)
	case recJobFail:
		c.finish(j, Result{}, fmt.Errorf("fleet: job %d: %s", r.Job, r.Err))
	}
}

// recover completes the replay fold: jobs that crashed before their plan
// record re-plan now, and jobs whose last shard completed but whose
// merge record was lost re-merge (same inputs, same bytes).
func (c *Coordinator) recover() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Finishing a job removes it from c.order, so walk a copy.
	for _, id := range slices.Clone(c.order) {
		j := c.jobs[id]
		if j.finished {
			continue
		}
		if !j.planned {
			if err := c.planLocked(j); err != nil {
				if ferr := c.failJobLocked(j, err.Error()); ferr != nil {
					return ferr
				}
				continue
			}
		}
		if j.planned && j.remaining == 0 && !j.finished {
			if err := c.mergeLocked(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// Submit accepts a job, plans its shards (for check jobs this runs the
// golden continuous-power pass synchronously — one uninterrupted run),
// logs both transitions, and returns the job id.
func (c *Coordinator) Submit(spec Spec) (uint64, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.next
	c.next++
	j := &job{id: id, spec: spec, submitted: c.cfg.Now(), done: make(chan struct{})}
	j.kind, _ = experiments.ParseRuntimeKind(spec.Runtime)
	if err := c.wal.append(record{Type: recSubmit, Job: id, Spec: spec}); err != nil {
		return 0, err
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	if err := c.planLocked(j); err != nil {
		if ferr := c.failJobLocked(j, err.Error()); ferr != nil {
			return 0, ferr
		}
		return id, nil
	}
	if j.remaining == 0 {
		// A plan with no shards (a check whose golden run never crossed a
		// charge-slice boundary) finishes at submit.
		if err := c.mergeLocked(j); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// planLocked computes and logs the job's shard ranges. Sweep plans are
// pure arithmetic over the spec; check plans run the golden pass, and
// nested (k > 1) checks additionally run the whole level-1
// exploration here, cutting the level-1 frontier into subtree shards.
func (c *Coordinator) planLocked(j *job) error {
	parts := j.spec.Shards
	if parts <= 0 {
		parts = c.cfg.DefaultShards
	}
	rec := record{Type: recPlan, Job: j.id}
	var work int
	switch j.spec.Mode {
	case ModeSweep:
		rec.Shards = splitRange(0, j.spec.Runs, parts)
		work = j.spec.Runs
	case ModeCheck:
		if c.cfg.Source == nil {
			return fmt.Errorf("fleet: check job %d needs a blueprint source", j.id)
		}
		factory, ok := c.cfg.Source.LookupFactory(j.spec.App)
		if !ok {
			return fmt.Errorf("fleet: unknown app %q", j.spec.App)
		}
		cfg := check.Config{Seed: j.spec.Seed, Off: j.spec.Off, Failures: j.spec.Failures}
		if j.spec.Failures > 1 {
			var err error
			if work, err = c.planNestedLocked(j, factory, cfg, parts, &rec); err != nil {
				return err
			}
			break
		}
		plan, err := check.Golden(factory, j.kind, cfg)
		if err != nil {
			return fmt.Errorf("fleet: plan check job %d: %w", j.id, err)
		}
		rec.Plan = plan
		rec.Shards = splitRange(0, plan.Candidates, parts)
		work = plan.Candidates
	}
	// Plan-time invariant: pending work must yield at least one shard. A
	// job planned with work but no shards has no completion path — it
	// would sit unfinished forever — so fail fast here instead.
	if work > 0 && len(rec.Shards) == 0 {
		return fmt.Errorf("fleet: job %d planned no shards over %d pending items (Shards=%d, DefaultShards=%d)",
			j.id, work, j.spec.Shards, c.cfg.DefaultShards)
	}
	if err := c.wal.append(rec); err != nil {
		return err
	}
	c.installPlan(j, rec)
	return nil
}

// planNestedLocked fills rec with a nested check's plan: it runs the
// golden pass plus the full level-1 exploration in the coordinator (the
// level-1 range is never sharded — representative selection is a
// function of outcomes across the whole range), then cuts the level-1
// frontier into contiguous groups of root checkpoints, each pre-encoded
// as one subtree shard task. The completed level-1 results ride along
// for the merge. Work is counted in frontier roots: a job whose level-1
// exploration leaves nothing to expand legitimately plans zero shards
// and finishes at submit.
func (c *Coordinator) planNestedLocked(j *job, factory experiments.AppFactory, cfg check.Config, parts int, rec *record) (work int, err error) {
	np, err := check.PlanNested(context.Background(), factory, j.kind, cfg)
	if err != nil {
		return 0, fmt.Errorf("fleet: plan check job %d: %w", j.id, err)
	}
	rec.Plan = np.Plan
	if np.Plan.Candidates == 0 {
		return 0, nil
	}
	rec.Level1 = wire.AppendCheckResult(nil, wire.CheckResult{
		Job: j.id, Explored: np.Explored, Divergences: np.Divergences,
	})
	rec.Shards = splitRange(0, len(np.Seeds), parts)
	rec.Tasks = make([][]byte, len(rec.Shards))
	for i, rg := range rec.Shards {
		roots := make([]wire.SubtreeRoot, 0, rg[1]-rg[0])
		for _, seed := range np.Seeds[rg[0]:rg[1]] {
			cpb, err := wire.EncodeCheckpoint(nil, seed.Dev)
			if err != nil {
				return 0, fmt.Errorf("fleet: job %d: encode subtree root: %w", j.id, err)
			}
			st, ok := seed.RT.(*rtbase.BaseState)
			if !ok {
				return 0, fmt.Errorf("fleet: job %d: runtime state %T is not wire-encodable", j.id, seed.RT)
			}
			roots = append(roots, wire.SubtreeRoot{
				Schedule: seed.Schedule, Collapsed: seed.Collapsed,
				Checkpoint: cpb, RT: st.Export(),
			})
		}
		rec.Tasks[i] = wire.AppendSubtreeShard(nil, wire.SubtreeShard{
			Job: j.id, Shard: i, App: j.spec.App, Runtime: j.spec.Runtime,
			Seed: j.spec.Seed, Off: np.Plan.Off, Failures: j.spec.Failures,
			Workers: j.spec.ShardWorkers, Roots: roots,
		})
	}
	return len(np.Seeds), nil
}

// installPlan applies a planned (or replayed) recPlan record.
func (c *Coordinator) installPlan(j *job, r record) {
	j.planned = true
	j.plan = r.Plan
	j.level1 = r.Level1
	j.shards = make([]*shardState, len(r.Shards))
	for i, rg := range r.Shards {
		sh := &shardState{lo: rg[0], hi: rg[1]}
		if i < len(r.Tasks) {
			sh.task = r.Tasks[i]
		}
		j.shards[i] = sh
	}
	j.remaining = len(r.Shards)
}

// splitRange splits [lo, hi) into at most parts contiguous near-equal
// pieces, mirroring the sweep engine's internal sharding. parts < 1 with
// work remaining degrades to one shard covering everything: returning an
// empty split would plan a job with no shards and no completion path.
func splitRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	cur := lo
	for p := 0; p < parts; p++ {
		size := n / parts
		if p < n%parts {
			size++
		}
		out = append(out, [2]int{cur, cur + size})
		cur += size
	}
	return out
}

// Lease hands the named worker one pending shard as an encoded task
// (wire.SweepShard, wire.CheckShard, or wire.SubtreeShard — dispatch on
// wire.PeekKind), or ok=false when nothing is pending. Jobs are scanned in submission
// order, shards in range order, so a single worker drains jobs in the
// order a sequential engine would.
func (c *Coordinator) Lease(worker string) (task []byte, ok bool, err error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	for _, id := range c.order {
		j := c.jobs[id]
		if !j.planned {
			continue
		}
		for idx, sh := range j.shards {
			if sh.st != shardPending || now.Before(sh.notBefore) {
				continue
			}
			if err := c.wal.append(record{
				Type: recLease, Job: j.id, Shard: idx, Worker: worker, At: now.UnixNano(),
			}); err != nil {
				return nil, false, err
			}
			sh.st = shardLeased
			sh.worker = worker
			sh.leaseExpiry = now.Add(c.cfg.LeaseTTL)
			if j.firstLease.IsZero() {
				j.firstLease = now
			}
			if m := c.cfg.Metrics; m != nil {
				m.Leases.Inc(worker)
			}
			return c.encodeTask(j, idx, sh), true, nil
		}
	}
	return nil, false, nil
}

// encodeTask renders one shard as its wire task message. Subtree shards
// were encoded at plan time (their root checkpoints exist only then) and
// are handed out verbatim.
func (c *Coordinator) encodeTask(j *job, idx int, sh *shardState) []byte {
	if sh.task != nil {
		return sh.task
	}
	s := j.spec
	if s.Mode == ModeSweep {
		return wire.AppendSweepShard(nil, wire.SweepShard{
			Job: j.id, Shard: idx, App: s.App, Runtime: s.Runtime,
			BaseSeed: s.BaseSeed, Lo: sh.lo, Hi: sh.hi, Workers: s.ShardWorkers,
		})
	}
	return wire.AppendCheckShard(nil, wire.CheckShard{
		Job: j.id, Shard: idx, App: s.App, Runtime: s.Runtime,
		Seed: s.Seed, Off: j.plan.Off, CutLo: sh.lo, CutHi: sh.hi,
		Workers: s.ShardWorkers, Failures: s.Failures,
	})
}

// expireLocked revokes overdue leases. No WAL record: a revoked lease
// and a crashed one recover identically (the shard is simply pending
// again), and the stale worker's eventual Complete still lands if it
// beats the re-lease — first result wins, and both results would be
// byte-identical anyway.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, id := range c.order {
		for _, sh := range c.jobs[id].shards {
			if sh.st == shardLeased && now.After(sh.leaseExpiry) {
				sh.st = shardPending
				if m := c.cfg.Metrics; m != nil {
					m.Expirations.Inc(sh.worker)
				}
			}
		}
	}
}

// Complete accepts a worker's encoded shard result (wire.SweepResult or
// wire.CheckResult). Duplicate or stale completions are ignored: the
// first logged result for a shard is the result. Completing the job's
// last shard merges and finishes the job.
func (c *Coordinator) Complete(worker string, payload []byte) error {
	jobID, shard, result, err := wire.ShardIDs(payload)
	if err != nil {
		return err
	}
	if !result {
		return fmt.Errorf("fleet: completion payload is %v, want a shard result", wire.PeekKind(payload))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return fmt.Errorf("fleet: completion for unknown job %d", jobID)
	}
	if j.finished || shard < 0 || shard >= len(j.shards) {
		return nil
	}
	sh := j.shards[shard]
	if sh.st == shardDone {
		return nil
	}
	if err := c.wal.append(record{Type: recShardDone, Job: jobID, Shard: shard, Payload: payload}); err != nil {
		return err
	}
	sh.st = shardDone
	sh.payload = payload
	j.remaining--
	if m := c.cfg.Metrics; m != nil {
		m.ShardsDone.Inc(worker)
	}
	if j.remaining == 0 {
		return c.mergeLocked(j)
	}
	return nil
}

// FailShard records one failed shard attempt. Under MaxAttempts the
// shard returns to the queue after a doubling backoff; at MaxAttempts
// the whole job fails (a shard that cannot run will not merge, and a
// partial merge would silently change the result).
func (c *Coordinator) FailShard(worker string, jobID uint64, shard int, msg string) error {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return fmt.Errorf("fleet: failure for unknown job %d", jobID)
	}
	if j.finished || shard < 0 || shard >= len(j.shards) {
		return nil
	}
	sh := j.shards[shard]
	if sh.st == shardDone {
		return nil
	}
	if err := c.wal.append(record{Type: recShardFail, Job: jobID, Shard: shard, Err: msg, At: now.UnixNano()}); err != nil {
		return err
	}
	sh.attempts++
	if m := c.cfg.Metrics; m != nil {
		m.Retries.Inc(worker)
	}
	if sh.attempts >= c.cfg.MaxAttempts {
		return c.failJobLocked(j, fmt.Sprintf("shard %d failed %d times, last: %s", shard, sh.attempts, msg))
	}
	sh.st = shardPending
	sh.notBefore = now.Add(c.retryBackoff(sh.attempts))
	return nil
}

// retryBackoff is the delay before a shard's next lease after its
// attempts-th failure: RetryBackoff doubling per attempt, capped at 8x.
// Shared by FailShard and WAL replay so a restart reproduces the same
// gate the live coordinator set.
func (c *Coordinator) retryBackoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 3 {
		shift = 3
	}
	if shift < 0 {
		shift = 0
	}
	return c.cfg.RetryBackoff << shift
}

// failJobLocked logs and applies a terminal job failure.
func (c *Coordinator) failJobLocked(j *job, msg string) error {
	if err := c.wal.append(record{Type: recJobFail, Job: j.id, Err: msg}); err != nil {
		return err
	}
	c.finish(j, Result{}, fmt.Errorf("fleet: job %d: %s", j.id, msg))
	return nil
}

// mergeLocked folds the job's shard results, in shard order, into the
// final Result, logs it, and finishes the job. A sweep fold mirrors the
// in-process engine exactly; a check report is assembled by check itself
// (mergeCheckJob).
func (c *Coordinator) mergeLocked(j *job) error {
	start := time.Now()
	var res Result
	switch j.spec.Mode {
	case ModeSweep:
		agg := stats.NewAggregator()
		var errs []string
		for _, sh := range j.shards {
			sr, err := wire.DecodeSweepResult(sh.payload)
			if err != nil {
				return fmt.Errorf("fleet: merge job %d: %w", j.id, err)
			}
			agg.Merge(stats.ImportAggregator(sr.Agg))
			errs = append(errs, sr.Errs...)
		}
		res = Result{Mode: ModeSweep, Summary: agg.Summary(), Errs: errs}
	case ModeCheck:
		rep, err := c.mergeCheckJob(j)
		if err != nil {
			return err
		}
		res = Result{Mode: ModeCheck, Report: rep}
	}
	if err := c.wal.append(record{Type: recJobDone, Job: j.id, Payload: encodeResultPayload(res), Errs: res.Errs}); err != nil {
		return err
	}
	if m := c.cfg.Metrics; m != nil {
		m.MergeTime.Observe(j.spec.Mode, time.Since(start).Seconds())
	}
	c.finish(j, res, nil)
	return nil
}

// mergeCheckJob decodes a check job's shard results, in shard order, and
// assembles them with check.Plan.Report — the function check.Run builds
// its own report with. A subtree-sharded nested check passes the
// coordinator's level-1 results (journaled at plan time) and the merged
// subtree reports; a cut-range check passes the shards' concatenated
// results as level 1 (a full-range k > 1 shard journaled before subtree
// sharding carries its nested depths and divergences along, already in
// order).
func (c *Coordinator) mergeCheckJob(j *job) (*check.Report, error) {
	if j.level1 != nil {
		l1, err := wire.DecodeCheckResult(j.level1)
		if err != nil {
			return nil, fmt.Errorf("fleet: merge job %d level-1 results: %w", j.id, err)
		}
		parts := make([]check.SubtreeReport, 0, len(j.shards))
		for i, sh := range j.shards {
			sr, err := wire.DecodeSubtreeResult(sh.payload)
			if err != nil {
				return nil, fmt.Errorf("fleet: merge job %d shard %d: %w", j.id, i, err)
			}
			parts = append(parts, check.SubtreeReport{Depths: sr.Depths, Divergences: sr.Divergences})
		}
		return j.plan.Report(l1.Explored, l1.Divergences, check.MergeSubtrees(parts)), nil
	}
	var explored int
	var divs []check.Divergence
	var depths []check.DepthStats
	for _, sh := range j.shards {
		cr, err := wire.DecodeCheckResult(sh.payload)
		if err != nil {
			return nil, fmt.Errorf("fleet: merge job %d: %w", j.id, err)
		}
		explored += cr.Explored
		depths = append(depths, cr.Depths...)
		divs = append(divs, cr.Divergences...)
	}
	rep := j.plan.Report(explored, divs, check.SubtreeReport{Depths: depths})
	// Shard results journaled by adaptive checks explored fewer points
	// than planned; book the difference as pruned, as those checks did.
	rep.Pruned = rep.Candidates - rep.Explored
	return rep, nil
}

// finish applies a terminal state and wakes waiters. A finished job
// keeps only what Wait, Progress and LeaseInfo report: its shard
// results, pre-encoded tasks (subtree tasks embed root checkpoints) and
// level-1 results are released, since replay, Lease and Complete all
// skip finished jobs, and the job leaves the lease scan order. A check
// report is kept packed, not decoded.
func (c *Coordinator) finish(j *job, res Result, err error) {
	if j.finished {
		return
	}
	j.finished = true
	if res.Report != nil {
		j.report = wire.PackReport(res.Report)
		res.Report = nil
	}
	j.result = res
	j.err = err
	j.remaining = 0
	j.level1 = nil
	for _, sh := range j.shards {
		sh.payload, sh.task = nil, nil
	}
	if i := slices.Index(c.order, j.id); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
	close(j.done)
}

// Wait blocks until the job finishes or ctx is done. While waiting it
// ticks the lease-expiry clock, so a dead worker's shards return to the
// queue even when no other worker is polling Lease.
func (c *Coordinator) Wait(ctx context.Context, id uint64) (Result, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return Result{}, fmt.Errorf("fleet: wait on unknown job %d", id)
	}
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-j.done:
			c.mu.Lock()
			res, packed, err := j.result, j.report, j.err
			c.mu.Unlock()
			if packed != nil {
				rep, uerr := wire.UnpackReport(packed)
				if uerr != nil {
					return Result{}, fmt.Errorf("fleet: job %d: unpacking its report: %w", id, uerr)
				}
				res.Report = rep
			}
			return res, err
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(c.cfg.Now())
			c.mu.Unlock()
		}
	}
}

// Progress reports how many of the job's shards have completed.
func (c *Coordinator) Progress(id uint64) (done, total int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return 0, 0, false
	}
	return len(j.shards) - j.remaining, len(j.shards), true
}

// LeaseInfo reports when the job was submitted and when its first shard
// lease was granted (zero until then). The gap is queue wait, not
// execution — the delay an execution deadline should not charge.
func (c *Coordinator) LeaseInfo(id uint64) (submitted, firstLease time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, found := c.jobs[id]
	if !found {
		return time.Time{}, time.Time{}, false
	}
	return j.submitted, j.firstLease, true
}
