// Package mem models the banked memory of an MSP430FR5994-class device:
// a large non-volatile FRAM bank, a small volatile SRAM bank, and the
// volatile LEA-RAM the vector accelerator operates on.
//
// Memory is word-addressed (16-bit words, matching the MSP430). The model
// is deliberately a plain state machine: it stores words, clears volatile
// banks on power failure, and counts accesses. Time and energy accounting
// belongs to the execution kernel, which charges costs *before* touching
// memory so that a power failure can cut an operation between the charge
// and the state change — the property idempotence bugs depend on.
package mem

import (
	"fmt"
	"sort"
)

// Bank identifies one of the device's memory banks.
type Bank uint8

// The device's banks.
const (
	// FRAM is the non-volatile main memory (persists across power failures).
	FRAM Bank = iota
	// SRAM is the volatile main memory (cleared on power failure).
	SRAM
	// LEARAM is the volatile RAM the LEA vector accelerator reads and
	// writes (cleared on power failure).
	LEARAM

	numBanks
)

// String returns the conventional name of the bank.
func (b Bank) String() string {
	switch b {
	case FRAM:
		return "FRAM"
	case SRAM:
		return "SRAM"
	case LEARAM:
		return "LEA-RAM"
	default:
		return fmt.Sprintf("Bank(%d)", uint8(b))
	}
}

// Volatile reports whether the bank loses its contents on power failure.
func (b Bank) Volatile() bool { return b != FRAM }

// Addr names a word inside a bank.
type Addr struct {
	Bank Bank
	Word int // word offset within the bank
}

// Add returns the address n words past a.
func (a Addr) Add(n int) Addr { return Addr{a.Bank, a.Word + n} }

// String formats the address as BANK+offset.
func (a Addr) String() string { return fmt.Sprintf("%s+0x%04x", a.Bank, a.Word) }

// Sizes of the modeled banks, in 16-bit words. They match the
// MSP430FR5994: 256 KB FRAM, 4 KB SRAM, 4 KB LEA-RAM.
const (
	FRAMWords   = 256 * 1024 / 2
	SRAMWords   = 4 * 1024 / 2
	LEARAMWords = 4 * 1024 / 2
)

// Counters tallies accesses to one bank.
type Counters struct {
	Reads  int64
	Writes int64
}

// Memory is the full banked memory of one device.
type Memory struct {
	banks     [numBanks][]uint16
	alloc     [numBanks]int // bump-allocator watermark, in words
	counts    [numBanks]Counters
	highWater [numBanks]int // 1 + highest word ever written
	regions   []Region      // allocation records for accounting
}

// Region records one allocation, for memory-overhead accounting (Table 6).
type Region struct {
	Name  string
	Owner string // "app" or a runtime name; used to attribute overhead
	Addr  Addr
	Words int
}

// New returns a zeroed memory with MSP430FR5994 bank sizes.
func New() *Memory {
	m := &Memory{}
	m.banks[FRAM] = make([]uint16, FRAMWords)
	m.banks[SRAM] = make([]uint16, SRAMWords)
	m.banks[LEARAM] = make([]uint16, LEARAMWords)
	return m
}

// Size returns the capacity of the bank in words.
func (m *Memory) Size(b Bank) int { return len(m.banks[b]) }

// Allocated returns the bump-allocator watermark of the bank in words.
func (m *Memory) Allocated(b Bank) int { return m.alloc[b] }

// Alloc reserves n words in bank b and records the allocation under the
// given name and owner. It panics if the bank is exhausted: the simulated
// applications have fixed, known footprints, so exhaustion is a programming
// error, not a runtime condition.
func (m *Memory) Alloc(b Bank, owner, name string, n int) Addr {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative allocation %q (%d words)", name, n))
	}
	if m.alloc[b]+n > len(m.banks[b]) {
		panic(fmt.Sprintf("mem: %s exhausted allocating %q (%d words, %d free)",
			b, name, n, len(m.banks[b])-m.alloc[b]))
	}
	a := Addr{b, m.alloc[b]}
	m.alloc[b] += n
	m.regions = append(m.regions, Region{Name: name, Owner: owner, Addr: a, Words: n})
	return a
}

// Regions returns a copy of the allocation records.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	copy(out, m.regions)
	return out
}

// OwnerWords returns the number of words allocated in bank b attributed to
// the given owner.
func (m *Memory) OwnerWords(b Bank, owner string) int {
	total := 0
	for _, r := range m.regions {
		if r.Addr.Bank == b && r.Owner == owner {
			total += r.Words
		}
	}
	return total
}

// Owners returns the distinct owners that have allocations, sorted.
func (m *Memory) Owners() []string {
	set := map[string]bool{}
	for _, r := range m.regions {
		set[r.Owner] = true
	}
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// check validates an address. The failure path lives in checkFail so that
// check — and the Read/Write hot paths around it — stay inlinable. The
// unsigned comparison folds the negative-word and past-end tests into
// one branch, which keeps Read/Write within the inlining budget at their
// own call sites (the DMA word loop lives or dies by this).
func (m *Memory) check(a Addr, what string) {
	if uint(a.Bank) >= uint(numBanks) || uint(a.Word) >= uint(len(m.banks[a.Bank])) {
		m.checkFail(a, what)
	}
}

func (m *Memory) checkFail(a Addr, what string) {
	if a.Bank >= numBanks {
		panic(fmt.Sprintf("mem: %s of invalid bank %d", what, a.Bank))
	}
	panic(fmt.Sprintf("mem: %s out of range: %s", what, a))
}

// Read returns the word at a and counts the access.
func (m *Memory) Read(a Addr) uint16 {
	m.check(a, "read")
	m.counts[a.Bank].Reads++
	return m.banks[a.Bank][a.Word]
}

// Write stores v at a and counts the access.
func (m *Memory) Write(a Addr, v uint16) {
	m.check(a, "write")
	m.counts[a.Bank].Writes++
	if a.Word+1 > m.highWater[a.Bank] {
		m.highWater[a.Bank] = a.Word + 1
	}
	m.banks[a.Bank][a.Word] = v
}

// HighWater returns 1 + the highest word offset ever written in bank b —
// the bank's effective footprint (used by the Table 6 memory report for
// volatile banks, which have no allocator).
func (m *Memory) HighWater(b Bank) int { return m.highWater[b] }

// ReadBlock copies n words starting at a into dst (which must have length
// ≥ n). It counts n reads.
func (m *Memory) ReadBlock(a Addr, dst []uint16, n int) {
	m.check(a, "block read")
	m.check(a.Add(n-1), "block read end")
	m.counts[a.Bank].Reads += int64(n)
	copy(dst[:n], m.banks[a.Bank][a.Word:a.Word+n])
}

// WriteBlock stores the first n words of src starting at a and counts
// n writes.
func (m *Memory) WriteBlock(a Addr, src []uint16, n int) {
	m.check(a, "block write")
	m.check(a.Add(n-1), "block write end")
	m.counts[a.Bank].Writes += int64(n)
	if a.Word+n > m.highWater[a.Bank] {
		m.highWater[a.Bank] = a.Word + n
	}
	copy(m.banks[a.Bank][a.Word:a.Word+n], src[:n])
}

// Counts returns the access counters of bank b.
func (m *Memory) Counts(b Bank) Counters { return m.counts[b] }

// CopyWindow is a pre-validated word-at-a-time copy between two ranges —
// the DMA hot path. Constructing one performs every word's bounds check
// up front; Move then transfers word i with exactly the counting and
// high-water effects of Read followed by Write, but cheap enough to
// inline into the kernel's per-word charge loop. A window is invalidated
// by anything that reallocates the memory (nothing does after New).
type CopyWindow struct {
	src, dst []uint16
	reads    *int64
	writes   *int64
	hw       *int
	dstBase  int
	bulk     bool
}

// CopyWindowFor validates the n-word source and destination ranges and
// returns a window over them. n must be positive.
func (m *Memory) CopyWindowFor(src, dst Addr, n int) CopyWindow {
	m.check(src, "read")
	m.check(src.Add(n-1), "read")
	m.check(dst, "write")
	m.check(dst.Add(n-1), "write")
	return CopyWindow{
		src:     m.banks[src.Bank][src.Word : src.Word+n],
		dst:     m.banks[dst.Bank][dst.Word : dst.Word+n],
		reads:   &m.counts[src.Bank].Reads,
		writes:  &m.counts[dst.Bank].Writes,
		hw:      &m.highWater[dst.Bank],
		dstBase: dst.Word,
		// A destination that starts inside the source range (same bank,
		// later start) makes the forward word-at-a-time copy propagate
		// already-copied values; only then does MoveN's memmove diverge.
		bulk: !(src.Bank == dst.Bank && dst.Word > src.Word && dst.Word < src.Word+n),
	}
}

// Move copies word i of the window, counting one read and one write.
func (w *CopyWindow) Move(i int) {
	*w.reads++
	*w.writes++
	if b := w.dstBase + i + 1; b > *w.hw {
		*w.hw = b
	}
	w.dst[i] = w.src[i]
}

// Bulkable reports whether MoveN is byte-equivalent to the same words
// moved one Move at a time (false only for value-propagating overlap).
func (w *CopyWindow) Bulkable() bool { return w.bulk }

// MoveN copies words [i, i+n) of the window at once, with the exact
// counting and high-water effects of n consecutive Move calls.
func (w *CopyWindow) MoveN(i, n int) {
	if n <= 0 {
		return
	}
	*w.reads += int64(n)
	*w.writes += int64(n)
	if b := w.dstBase + i + n; b > *w.hw {
		*w.hw = b
	}
	copy(w.dst[i:i+n], w.src[i:i+n])
}

// Span is a pre-validated window over a word range of one bank, for
// whole-command loops (an LEA vector command, the checker's scan of a
// result variable). The contract:
//
//   - Bounds are checked once per command, when the span is taken, with
//     the same panic text as a per-word Read or Write of the first
//     offending end. A command that validates all its spans before it
//     touches Words therefore either panics with memory untouched or
//     runs to completion.
//   - Words aliases the bank's backing store. Loads and stores through it
//     are not counted; the caller books the command's reads, writes and
//     high-water in one Book call after the loop, with exactly the totals
//     the equivalent per-word Read/Write sequence would have counted.
//   - A span is invalidated by anything that reallocates the memory
//     (nothing does after New).
type Span struct {
	Words []uint16
	m     *Memory
	bank  Bank
	base  int
}

// Span validates the n-word range at a for the named access ("read" or
// "write", as in the per-word panic text) and returns a span over it.
// The first word is checked even when n is 0, as View does; a range
// running past the bank names the first word past it, the word a
// per-word loop would have failed on.
func (m *Memory) Span(a Addr, n int, what string) Span {
	m.check(a, what)
	if uint(n) > uint(len(m.banks[a.Bank])-a.Word) {
		m.spanFail(a, n, what)
	}
	return Span{Words: m.banks[a.Bank][a.Word : a.Word+n], m: m, bank: a.Bank, base: a.Word}
}

func (m *Memory) spanFail(a Addr, n int, what string) {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative %s span at %s (%d words)", what, a, n))
	}
	m.checkFail(Addr{a.Bank, len(m.banks[a.Bank])}, what)
}

// Book counts reads and writes against the span's bank and raises the
// bank's high-water mark over the span's first written words (1 + the
// highest span offset written; 0 when nothing was written).
func (s Span) Book(reads, writes int64, written int) {
	c := &s.m.counts[s.bank]
	c.Reads += reads
	c.Writes += writes
	if hw := s.base + written; written > 0 && hw > s.m.highWater[s.bank] {
		s.m.highWater[s.bank] = hw
	}
}

// ReadView is a pre-validated read-only view of a word range, for tight
// scan loops (the output checker reads every word of every result
// variable once per run). At counts one read per call, identical to
// per-word Read.
type ReadView struct {
	words []uint16
	reads *int64
}

// View validates the n-word range at a and returns a read view of it.
func (m *Memory) View(a Addr, n int) ReadView {
	s := m.Span(a, n, "read")
	return ReadView{words: s.Words, reads: &m.counts[a.Bank].Reads}
}

// At returns word i of the view and counts the read.
func (v ReadView) At(i int) uint16 {
	*v.reads++
	return v.words[i]
}

// Reset clears all memory contents, access counters and high-water marks
// while preserving the allocator state and allocation records, so a
// runtime attached to this memory keeps its addresses valid across runs.
// Only words that can have been written are cleared: runtime-mediated
// writes stay below the allocator watermark and raw writes (DMA into
// LEA-RAM) below the high-water mark, so clearing up to the larger of the
// two restores the bank to its as-new all-zero state.
func (m *Memory) Reset() {
	for b := Bank(0); b < numBanks; b++ {
		n := m.alloc[b]
		if m.highWater[b] > n {
			n = m.highWater[b]
		}
		clear(m.banks[b][:n])
		m.counts[b] = Counters{}
		m.highWater[b] = 0
	}
}

// PowerFailure clears every volatile bank, exactly what a real power
// failure does to SRAM and LEA-RAM. FRAM contents survive. Only the used
// prefix is touched: every write path (Read/Write, blocks, copy windows)
// maintains the high-water mark, and Restore re-establishes it, so words
// above max(alloc, highWater) are provably zero already — clearing them
// again cost a full 4 KB memclr per bank per failure, which showed up in
// sweep profiles.
func (m *Memory) PowerFailure() {
	for b := Bank(0); b < numBanks; b++ {
		if !b.Volatile() {
			continue
		}
		clear(m.banks[b][:m.usedWords(b)])
	}
}

// Snapshot captures the full contents of one bank.
type Snapshot struct {
	Bank  Bank
	Words []uint16
}

// Snapshot returns a copy of the current contents of bank b.
func (m *Memory) Snapshot(b Bank) Snapshot {
	words := make([]uint16, len(m.banks[b]))
	copy(words, m.banks[b])
	return Snapshot{Bank: b, Words: words}
}

// Restore overwrites bank contents from a snapshot taken earlier. It
// raises the bank's high-water mark over any restored nonzero word, so
// the invariant that words above the used prefix are zero (which
// PowerFailure and Reset rely on to clear only that prefix) survives
// restoring a snapshot with a larger footprint.
func (m *Memory) Restore(s Snapshot) {
	if len(s.Words) != len(m.banks[s.Bank]) {
		panic(fmt.Sprintf("mem: restore size mismatch for %s: %d vs %d",
			s.Bank, len(s.Words), len(m.banks[s.Bank])))
	}
	copy(m.banks[s.Bank], s.Words)
	for i := len(s.Words) - 1; i >= m.usedWords(s.Bank); i-- {
		if s.Words[i] != 0 {
			m.highWater[s.Bank] = i + 1
			break
		}
	}
}

// DeviceSnapshot captures the full mid-run state of a Memory: every
// bank's used prefix plus the access counters and high-water marks. The
// allocator state (watermarks and region records) is deliberately not
// copied — a snapshot may only be restored into a memory with the same
// allocation layout, which RestoreAll verifies. Copying just the used
// prefix (everything at or below max(alloc, highWater) per bank, the
// same bound Reset clears) keeps snapshots proportional to the app's
// footprint instead of the 256 KB FRAM bank.
type DeviceSnapshot struct {
	used      [numBanks][]uint16
	alloc     [numBanks]int
	counts    [numBanks]Counters
	highWater [numBanks]int
}

// usedWords returns how many words of bank b can differ from zero: the
// larger of the allocator watermark and the high-water mark (raw DMA
// writes can land above the watermark).
func (m *Memory) usedWords(b Bank) int {
	n := m.alloc[b]
	if m.highWater[b] > n {
		n = m.highWater[b]
	}
	return n
}

// SnapshotAll captures every bank's used prefix together with the access
// counters and high-water marks.
func (m *Memory) SnapshotAll() *DeviceSnapshot { return m.SnapshotAllInto(nil) }

// SnapshotAllInto is SnapshotAll reusing s's buffers when s is non-nil —
// the allocation-free path for callers that recycle snapshots (the
// checker takes one per candidate failure point; fresh buffers each
// time dominated its recording cost).
func (m *Memory) SnapshotAllInto(s *DeviceSnapshot) *DeviceSnapshot {
	if s == nil {
		s = &DeviceSnapshot{}
	}
	s.alloc = m.alloc
	s.counts = m.counts
	s.highWater = m.highWater
	for b := Bank(0); b < numBanks; b++ {
		n := m.usedWords(b)
		s.used[b] = append(s.used[b][:0], m.banks[b][:n]...)
	}
	return s
}

// RestoreAll overwrites the memory's contents, counters and high-water
// marks from a snapshot taken earlier. The target must have the same
// allocator watermarks as the snapshotted memory (i.e. the same
// blueprint attached in the same order); it panics otherwise, since
// restoring into a different layout is a harness bug. Words above the
// target's own used prefix are provably zero in both memories, so only
// the prefixes are touched.
func (m *Memory) RestoreAll(s *DeviceSnapshot) {
	if m.alloc != s.alloc {
		panic(fmt.Sprintf("mem: restore-all layout mismatch: alloc %v vs %v",
			m.alloc, s.alloc))
	}
	for b := Bank(0); b < numBanks; b++ {
		// The copy overwrites the snapshot's prefix; only the tail the
		// current memory used beyond it needs explicit clearing.
		if n, k := m.usedWords(b), len(s.used[b]); n > k {
			clear(m.banks[b][k:n])
		}
		copy(m.banks[b], s.used[b])
	}
	m.counts = s.counts
	m.highWater = s.highWater
}

// Diff reports the word offsets (up to max) at which the snapshot and the
// current bank contents differ. A nil result means the bank matches the
// snapshot exactly.
func (m *Memory) Diff(s Snapshot, max int) []int {
	var diffs []int
	for i, w := range m.banks[s.Bank] {
		if w != s.Words[i] {
			diffs = append(diffs, i)
			if len(diffs) >= max {
				break
			}
		}
	}
	return diffs
}

// EqualRange reports whether the n words starting at a equal want.
func (m *Memory) EqualRange(a Addr, want []uint16) bool {
	if a.Word+len(want) > len(m.banks[a.Bank]) {
		return false
	}
	got := m.banks[a.Bank][a.Word : a.Word+len(want)]
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// NumBanks is the number of modeled memory banks, exported for
// serialization layers that flatten per-bank state.
const NumBanks = int(numBanks)

// bankWords returns the fixed capacity of bank b in words.
func bankWords(b Bank) int {
	switch b {
	case FRAM:
		return FRAMWords
	case SRAM:
		return SRAMWords
	case LEARAM:
		return LEARAMWords
	default:
		panic(fmt.Sprintf("mem: no capacity for %v", b))
	}
}

// SnapshotState is the exported, serializable view of a DeviceSnapshot:
// one entry per bank (index = Bank value, NumBanks entries each) for the
// used word prefix, the allocator watermark, the access counters and the
// high-water mark. internal/wire flattens it to bytes; this package only
// defines what the state is and validates it on import.
type SnapshotState struct {
	Used      [][]uint16
	Alloc     []int
	Counts    []Counters
	HighWater []int
}

// Export returns the snapshot's components for serialization. The
// returned slices alias the snapshot's storage — treat them as
// read-only, and do not retain them past the snapshot's next reuse.
func (s *DeviceSnapshot) Export() SnapshotState {
	st := SnapshotState{
		Used:      make([][]uint16, NumBanks),
		Alloc:     make([]int, NumBanks),
		Counts:    make([]Counters, NumBanks),
		HighWater: make([]int, NumBanks),
	}
	for b := Bank(0); b < numBanks; b++ {
		st.Used[b] = s.used[b]
		st.Alloc[b] = s.alloc[b]
		st.Counts[b] = s.counts[b]
		st.HighWater[b] = s.highWater[b]
	}
	return st
}

// ImportSnapshot rebuilds a DeviceSnapshot from its exported view,
// taking ownership of the Used slices. It rejects states whose shape
// cannot have come from a real snapshot (wrong bank count, a prefix
// longer than the bank, counters or watermarks out of range), so a
// decoder can feed it untrusted bytes without tripping RestoreAll's
// panics later.
func ImportSnapshot(st SnapshotState) (*DeviceSnapshot, error) {
	if len(st.Used) != NumBanks || len(st.Alloc) != NumBanks ||
		len(st.Counts) != NumBanks || len(st.HighWater) != NumBanks {
		return nil, fmt.Errorf("mem: snapshot state wants %d banks, got %d/%d/%d/%d",
			NumBanks, len(st.Used), len(st.Alloc), len(st.Counts), len(st.HighWater))
	}
	s := &DeviceSnapshot{}
	for b := Bank(0); b < numBanks; b++ {
		cap := bankWords(b)
		if len(st.Used[b]) > cap {
			return nil, fmt.Errorf("mem: %s snapshot prefix %d words exceeds bank size %d",
				b, len(st.Used[b]), cap)
		}
		if st.Alloc[b] < 0 || st.Alloc[b] > cap {
			return nil, fmt.Errorf("mem: %s snapshot watermark %d out of range [0,%d]",
				b, st.Alloc[b], cap)
		}
		if st.HighWater[b] < 0 || st.HighWater[b] > cap {
			return nil, fmt.Errorf("mem: %s snapshot high-water %d out of range [0,%d]",
				b, st.HighWater[b], cap)
		}
		if st.Counts[b].Reads < 0 || st.Counts[b].Writes < 0 {
			return nil, fmt.Errorf("mem: %s snapshot counters negative: %+v", b, st.Counts[b])
		}
		s.used[b] = st.Used[b]
		s.alloc[b] = st.Alloc[b]
		s.counts[b] = st.Counts[b]
		s.highWater[b] = st.HighWater[b]
	}
	return s, nil
}
