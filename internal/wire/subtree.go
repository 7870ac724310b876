// The distributed nested-failure checker's work unit. A subtree shard
// ships a contiguous group of level-1 expansion representatives — each a
// passing failure prefix, the number of hash-equal siblings it stands
// for, and the device+runtime checkpoint at its cut — so a stateless
// worker can restore the roots and grow their subtrees without replaying
// any level-1 prefix. The matching result carries the subtree
// exploration's per-depth stats and divergences; because the in-process
// checker's breadth-first frontier at any depth is the concatenation of
// the root groups' own frontiers in group order, merging results per
// depth in shard order reproduces the unsharded report byte for byte.

package wire

import (
	"time"

	"easeio/internal/check"
	"easeio/internal/rtbase"
)

// SubtreeRoot is one level-1 expansion representative: the schedule that
// reached it, its collapse run-length, and the checkpoint it resumes
// from. Checkpoint is an embedded KindCheckpoint message (the device
// half); RT is the runtime's bookkeeping state at the same cut.
type SubtreeRoot struct {
	Schedule   []time.Duration
	Collapsed  int
	Checkpoint []byte
	RT         rtbase.BaseWireState
}

// SubtreeShard describes one worker's slice of a nested (k > 1) checker
// job: expand the given roots' subtrees under the job's configuration.
// The worker recomputes the golden reference locally — the golden pass
// is deterministic, so only the roots themselves need shipping.
type SubtreeShard struct {
	Job     uint64
	Shard   int
	App     string
	Runtime string

	Seed     int64
	Off      time.Duration
	Failures int // total exploration depth k (the roots sit at depth 2)
	Workers  int
	Roots    []SubtreeRoot
}

// SubtreeResult is a worker's completed subtree shard: the per-depth
// stats and divergences of the roots' subtrees, in the same
// (depth, root, candidate) order the in-process checker books them.
type SubtreeResult struct {
	Job         uint64
	Shard       int
	Depths      []check.DepthStats
	Divergences []check.Divergence
}

// AppendSubtreeShard encodes s as a KindSubtreeShard message appended to
// dst.
func AppendSubtreeShard(dst []byte, s SubtreeShard) []byte {
	dst = appendHeader(dst, KindSubtreeShard)
	dst = appendUvarint(dst, s.Job)
	dst = appendVarint(dst, int64(s.Shard))
	dst = appendString(dst, s.App)
	dst = appendString(dst, s.Runtime)
	dst = appendVarint(dst, s.Seed)
	dst = appendVarint(dst, int64(s.Off))
	dst = appendVarint(dst, int64(s.Failures))
	// Retired exhaustive flag and grid size, kept so WAL-held shards decode.
	dst = appendBool(dst, true)
	dst = appendVarint(dst, 0)
	dst = appendVarint(dst, int64(s.Workers))
	dst = appendUvarint(dst, uint64(len(s.Roots)))
	for _, r := range s.Roots {
		dst = appendUvarint(dst, uint64(len(r.Schedule)))
		for _, t := range r.Schedule {
			dst = appendVarint(dst, int64(t))
		}
		dst = appendVarint(dst, int64(r.Collapsed))
		dst = appendUvarint(dst, uint64(len(r.Checkpoint)))
		dst = append(dst, r.Checkpoint...)
		dst = appendBaseWireState(dst, r.RT)
	}
	return dst
}

// DecodeSubtreeShard decodes a KindSubtreeShard message. The roots'
// Checkpoint slices are fresh copies — nothing aliases b.
func DecodeSubtreeShard(b []byte) (SubtreeShard, error) {
	d := &dec{b: b}
	d.header(KindSubtreeShard)
	s := SubtreeShard{
		Job:      d.uvarint(),
		Shard:    int(d.varint()),
		App:      d.string(),
		Runtime:  d.string(),
		Seed:     d.varint(),
		Off:      time.Duration(d.varint()),
		Failures: int(d.varint()),
	}
	// Retired exhaustive flag and grid size, kept so WAL-held shards decode.
	d.bool()
	d.varint()
	s.Workers = int(d.varint())
	// Each root is at least 7 bytes (empty schedule, collapsed, empty
	// checkpoint, empty base state).
	if n := d.count(7); d.err == nil && n > 0 {
		s.Roots = make([]SubtreeRoot, n)
		for i := 0; i < n && d.err == nil; i++ {
			r := &s.Roots[i]
			if m := d.count(1); d.err == nil && m > 0 {
				r.Schedule = make([]time.Duration, m)
				for j := 0; j < m && d.err == nil; j++ {
					r.Schedule[j] = time.Duration(d.varint())
				}
			}
			r.Collapsed = int(d.varint())
			if m := d.count(1); d.err == nil && m > 0 {
				r.Checkpoint = make([]byte, m)
				copy(r.Checkpoint, d.b[d.off:])
				d.off += m
			}
			r.RT = d.baseWireState()
		}
	}
	if d.err != nil {
		return SubtreeShard{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SubtreeShard{}, d.trailing(n)
	}
	return s, nil
}

// AppendSubtreeResult encodes r as a KindSubtreeResult message appended
// to dst.
func AppendSubtreeResult(dst []byte, r SubtreeResult) []byte {
	dst = appendHeader(dst, KindSubtreeResult)
	dst = appendUvarint(dst, r.Job)
	dst = appendVarint(dst, int64(r.Shard))
	dst = appendDepthStats(dst, r.Depths)
	return appendDivergences(dst, r.Divergences)
}

// DecodeSubtreeResult decodes a KindSubtreeResult message.
func DecodeSubtreeResult(b []byte) (SubtreeResult, error) {
	d := &dec{b: b}
	d.header(KindSubtreeResult)
	r := SubtreeResult{
		Job:   d.uvarint(),
		Shard: int(d.varint()),
	}
	r.Depths = d.depthStats()
	r.Divergences = d.divergences()
	if d.err != nil {
		return SubtreeResult{}, d.err
	}
	if n := d.remaining(); n != 0 {
		return SubtreeResult{}, d.trailing(n)
	}
	return r, nil
}

// appendBaseWireState encodes a runtime bookkeeping snapshot.
func appendBaseWireState(dst []byte, w rtbase.BaseWireState) []byte {
	dst = appendVarint(dst, int64(w.Cur))
	dst = appendUvarint(dst, uint64(len(w.Slots)))
	for _, sl := range w.Slots {
		dst = appendVarint(dst, int64(sl.TaskID))
		dst = appendVarint(dst, int64(sl.TaskInst))
		dst = appendVarint(dst, int64(sl.ExecCount))
		dst = appendBool(dst, sl.Completed)
	}
	dst = appendUvarint(dst, uint64(len(w.TaskInst)))
	for _, ti := range w.TaskInst {
		dst = appendVarint(dst, int64(ti))
	}
	return dst
}

func (d *dec) baseWireState() rtbase.BaseWireState {
	w := rtbase.BaseWireState{Cur: int(d.varint())}
	// Each slot is at least 4 bytes (three varints and a bool).
	if n := d.count(4); d.err == nil && n > 0 {
		w.Slots = make([]rtbase.IOSlotState, n)
		for i := 0; i < n && d.err == nil; i++ {
			w.Slots[i] = rtbase.IOSlotState{
				TaskID:    int32(d.varint()),
				TaskInst:  int32(d.varint()),
				ExecCount: int32(d.varint()),
				Completed: d.bool(),
			}
		}
	}
	if n := d.count(1); d.err == nil && n > 0 {
		w.TaskInst = make([]int32, n)
		for i := 0; i < n && d.err == nil; i++ {
			w.TaskInst[i] = int32(d.varint())
		}
	}
	return w
}
