package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBankProperties(t *testing.T) {
	if FRAM.Volatile() {
		t.Error("FRAM must be non-volatile")
	}
	if !SRAM.Volatile() || !LEARAM.Volatile() {
		t.Error("SRAM and LEA-RAM must be volatile")
	}
	if FRAM.String() != "FRAM" || SRAM.String() != "SRAM" || LEARAM.String() != "LEA-RAM" {
		t.Errorf("bank names: %v %v %v", FRAM, SRAM, LEARAM)
	}
}

func TestBankSizes(t *testing.T) {
	m := New()
	if m.Size(FRAM) != 256*1024/2 {
		t.Errorf("FRAM size = %d words", m.Size(FRAM))
	}
	if m.Size(SRAM) != 4*1024/2 {
		t.Errorf("SRAM size = %d words", m.Size(SRAM))
	}
	if m.Size(LEARAM) != 4*1024/2 {
		t.Errorf("LEA-RAM size = %d words", m.Size(LEARAM))
	}
}

func TestAllocAndRegions(t *testing.T) {
	m := New()
	a := m.Alloc(FRAM, "app", "buf", 10)
	b := m.Alloc(FRAM, "rt", "flags", 2)
	if a.Bank != FRAM || a.Word != 0 {
		t.Errorf("first alloc at %v", a)
	}
	if b.Word != 10 {
		t.Errorf("second alloc at %v, want word 10", b)
	}
	if m.Allocated(FRAM) != 12 {
		t.Errorf("allocated = %d, want 12", m.Allocated(FRAM))
	}
	if got := m.OwnerWords(FRAM, "app"); got != 10 {
		t.Errorf("app words = %d", got)
	}
	if got := m.OwnerWords(FRAM, "rt"); got != 2 {
		t.Errorf("rt words = %d", got)
	}
	owners := m.Owners()
	if len(owners) != 2 || owners[0] != "app" || owners[1] != "rt" {
		t.Errorf("owners = %v", owners)
	}
	regions := m.Regions()
	if len(regions) != 2 || regions[0].Name != "buf" || regions[1].Words != 2 {
		t.Errorf("regions = %+v", regions)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	m.Alloc(SRAM, "app", "too-big", m.Size(SRAM)+1)
}

func TestReadWriteAndCounters(t *testing.T) {
	m := New()
	a := Addr{FRAM, 100}
	m.Write(a, 0xBEEF)
	if got := m.Read(a); got != 0xBEEF {
		t.Errorf("read back %#x", got)
	}
	c := m.Counts(FRAM)
	if c.Reads != 1 || c.Writes != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New()
	for _, a := range []Addr{
		{FRAM, -1},
		{FRAM, m.Size(FRAM)},
		{Bank(9), 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", a)
				}
			}()
			m.Read(a)
		}()
	}
}

func TestPowerFailureClearsOnlyVolatile(t *testing.T) {
	m := New()
	m.Write(Addr{FRAM, 5}, 111)
	m.Write(Addr{SRAM, 5}, 222)
	m.Write(Addr{LEARAM, 5}, 333)
	m.PowerFailure()
	if got := m.Read(Addr{FRAM, 5}); got != 111 {
		t.Errorf("FRAM lost data: %d", got)
	}
	if got := m.Read(Addr{SRAM, 5}); got != 0 {
		t.Errorf("SRAM survived: %d", got)
	}
	if got := m.Read(Addr{LEARAM, 5}); got != 0 {
		t.Errorf("LEA-RAM survived: %d", got)
	}
}

func TestBlockTransfer(t *testing.T) {
	m := New()
	src := []uint16{1, 2, 3, 4, 5}
	m.WriteBlock(Addr{FRAM, 50}, src, 5)
	dst := make([]uint16, 5)
	m.ReadBlock(Addr{FRAM, 50}, dst, 5)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	c := m.Counts(FRAM)
	if c.Reads != 5 || c.Writes != 5 {
		t.Errorf("block counters = %+v", c)
	}
}

func TestSnapshotRestoreDiff(t *testing.T) {
	m := New()
	m.Write(Addr{FRAM, 1}, 10)
	snap := m.Snapshot(FRAM)
	m.Write(Addr{FRAM, 1}, 20)
	m.Write(Addr{FRAM, 7}, 30)
	diffs := m.Diff(snap, 10)
	if len(diffs) != 2 || diffs[0] != 1 || diffs[1] != 7 {
		t.Errorf("diffs = %v", diffs)
	}
	if got := m.Diff(snap, 1); len(got) != 1 {
		t.Errorf("diff cap ignored: %v", got)
	}
	m.Restore(snap)
	if m.Diff(snap, 10) != nil {
		t.Error("restore did not reproduce snapshot")
	}
	if got := m.Read(Addr{FRAM, 1}); got != 10 {
		t.Errorf("restored value = %d", got)
	}
}

func TestEqualRange(t *testing.T) {
	m := New()
	m.WriteBlock(Addr{FRAM, 10}, []uint16{7, 8, 9}, 3)
	if !m.EqualRange(Addr{FRAM, 10}, []uint16{7, 8, 9}) {
		t.Error("EqualRange false negative")
	}
	if m.EqualRange(Addr{FRAM, 10}, []uint16{7, 8, 10}) {
		t.Error("EqualRange false positive")
	}
	if m.EqualRange(Addr{FRAM, m.Size(FRAM) - 1}, []uint16{0, 0}) {
		t.Error("EqualRange out of range should be false")
	}
	if !m.EqualRange(Addr{FRAM, m.Size(FRAM)}, nil) {
		t.Error("EqualRange of an empty range at the bank end should be true")
	}
	// A difference in either byte of any one word, at every position of
	// ranges long enough for the byte compare's vector loop, is found.
	want := make([]uint16, 67)
	for i := range want {
		want[i] = uint16(0x0101 * (i + 1))
	}
	m.WriteBlock(Addr{FRAM, 100}, want, len(want))
	for n := 0; n <= len(want); n++ {
		if !m.EqualRange(Addr{FRAM, 100}, want[:n]) {
			t.Fatalf("EqualRange false negative over %d words", n)
		}
	}
	for i := range want {
		for _, flip := range []uint16{0x0001, 0x0100} {
			w := append([]uint16(nil), want...)
			w[i] ^= flip
			if m.EqualRange(Addr{FRAM, 100}, w) {
				t.Fatalf("EqualRange missed word %d differing by %#04x", i, flip)
			}
		}
	}
}

func TestHighWater(t *testing.T) {
	m := New()
	if m.HighWater(LEARAM) != 0 {
		t.Error("fresh memory has no high water")
	}
	m.Write(Addr{LEARAM, 99}, 1)
	m.Write(Addr{LEARAM, 10}, 1)
	if got := m.HighWater(LEARAM); got != 100 {
		t.Errorf("high water = %d, want 100", got)
	}
	m.WriteBlock(Addr{SRAM, 20}, []uint16{1, 2, 3}, 3)
	if got := m.HighWater(SRAM); got != 23 {
		t.Errorf("SRAM high water = %d, want 23", got)
	}
}

// TestSpanContract pins Span's bounds checks (the per-word panic text,
// naming the first offending word) and Book's bulk counting.
func TestSpanContract(t *testing.T) {
	m := New()
	end := m.Size(LEARAM)
	for _, tc := range []struct {
		a    Addr
		n    int
		what string
		want string
	}{
		{Addr{LEARAM, end - 2}, 3, "read", "mem: read out of range: LEA-RAM+0x0800"},
		{Addr{LEARAM, end}, 0, "write", "mem: write out of range: LEA-RAM+0x0800"},
		{Addr{LEARAM, -1}, 4, "read", "mem: read out of range: LEA-RAM+0x-001"},
		{Addr{LEARAM, 5}, -1, "read", "mem: negative read span at LEA-RAM+0x0005 (-1 words)"},
		{Addr{Bank(9), 0}, 1, "read", "mem: read of invalid bank 9"},
	} {
		func() {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("Span(%v, %d): panic %v, want %q", tc.a, tc.n, got, tc.want)
				}
			}()
			m.Span(tc.a, tc.n, tc.what)
		}()
	}

	s := m.Span(Addr{LEARAM, end - 4}, 4, "write")
	if len(s.Words) != 4 {
		t.Fatalf("span of %d words", len(s.Words))
	}
	s.Words[1] = 7
	if m.Read(Addr{LEARAM, end - 3}) != 7 {
		t.Error("span words do not alias the bank")
	}
	s.Book(10, 2, 2)
	if c := m.Counts(LEARAM); c.Reads != 11 || c.Writes != 2 {
		t.Errorf("counts after Book = %+v, want 11 reads (10 booked + 1 Read), 2 writes", c)
	}
	if hw := m.HighWater(LEARAM); hw != end-2 {
		t.Errorf("high water = %d, want %d", hw, end-2)
	}
	s.Book(0, 0, 0) // nothing written: the mark never moves down
	m.Span(Addr{LEARAM, 0}, 1, "write").Book(0, 1, 1)
	if hw := m.HighWater(LEARAM); hw != end-2 {
		t.Errorf("high water = %d after lower writes, want %d", hw, end-2)
	}
}

// TestPersistenceProperty checks the core intermittence invariant with
// random workloads: after a power failure, a word survives exactly when it
// lives in FRAM.
func TestPersistenceProperty(t *testing.T) {
	err := quick.Check(func(seed int64, nWrites uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		type write struct {
			a Addr
			v uint16
		}
		last := map[Addr]uint16{}
		for i := 0; i < int(nWrites); i++ {
			b := Bank(rng.Intn(3))
			a := Addr{b, rng.Intn(m.Size(b))}
			v := uint16(rng.Uint32())
			m.Write(a, v)
			last[a] = v
		}
		m.PowerFailure()
		for a, v := range last {
			got := m.Read(a)
			if a.Bank == FRAM && got != v {
				return false
			}
			if a.Bank != FRAM && got != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr{FRAM, 10}
	if got := a.Add(5); got.Word != 15 || got.Bank != FRAM {
		t.Errorf("Add = %v", got)
	}
	if got := a.String(); got != "FRAM+0x000a" {
		t.Errorf("String = %q", got)
	}
}
