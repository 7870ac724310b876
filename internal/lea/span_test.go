// Differential tests of the span-based LEA kernels against per-word
// oracles: the kernels as they were written before they ran over
// pre-validated mem spans, one bounds-checked Read or Write per word.
// Both must leave identical LEA-RAM words, access counters and
// high-water marks, over random offsets and lengths including
// overlapping windows; a command with any window out of range must
// panic with mem's range error and leave LEA-RAM untouched.

package lea

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"easeio/internal/mem"
)

func readS16(m *mem.Memory, off int) int16 { return int16(m.Read(leaAddr(off))) }

func writeS16(m *mem.Memory, off int, v int16) { m.Write(leaAddr(off), uint16(v)) }

// firWord is the per-word Fir oracle.
func firWord(m *mem.Memory, inOff, coefOff, outOff, inLen, taps int) {
	if taps <= 0 || inLen < taps {
		return
	}
	for i := 0; i <= inLen-taps; i++ {
		var acc int64
		for j := 0; j < taps; j++ {
			acc += int64(readS16(m, inOff+i+j)) * int64(readS16(m, coefOff+j))
		}
		writeS16(m, outOff+i, sat16(acc>>15))
	}
}

// reluWord is the per-word Relu oracle.
func reluWord(m *mem.Memory, off, n int) {
	for i := 0; i < n; i++ {
		if readS16(m, off+i) < 0 {
			writeS16(m, off+i, 0)
		}
	}
}

// dotWord is the per-word Dot oracle.
func dotWord(m *mem.Memory, aOff, bOff, n int) int32 {
	var acc int64
	for i := 0; i < n; i++ {
		acc += int64(readS16(m, aOff+i)) * int64(readS16(m, bOff+i))
	}
	return sat32(acc)
}

// leaCmd is one LEA command. Fir uses a, b, c as in, coef, out offsets
// with n = inLen; Relu uses a and n; Dot uses a, b and n.
type leaCmd struct {
	op      byte // 0 Fir, 1 Relu, 2 Dot
	a, b, c int
	n, taps int
	fill    int64 // seeds the LEA-RAM contents
	// load lists windows stored over the seeded contents, in order,
	// before the command runs.
	load []window
}

// window is a run of samples at a LEA-RAM word offset.
type window struct {
	off  int
	vals []int16
}

func (c leaCmd) String() string {
	s := fmt.Sprintf("op=%d a=%d b=%d c=%d n=%d taps=%d fill=%d", c.op, c.a, c.b, c.c, c.n, c.taps, c.fill)
	for _, w := range c.load {
		s += fmt.Sprintf(" load@%d=%v", w.off, w.vals)
	}
	return s
}

// memory returns the command's starting memory: filledMemory(fill) with
// the load windows stored over it, unbooked and clipped to LEA-RAM.
func (c leaCmd) memory() *mem.Memory {
	m := filledMemory(c.fill)
	all := m.Span(leaAddr(0), mem.LEARAMWords, "write").Words
	for _, w := range c.load {
		for i, v := range w.vals {
			if o := w.off + i; o >= 0 && o < len(all) {
				all[o] = uint16(v)
			}
		}
	}
	return m
}

// run executes the command with either implementation, recovering a
// panic into its message.
func (c leaCmd) run(m *mem.Memory, perWord bool) (dot int32, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	switch c.op {
	case 0:
		if perWord {
			firWord(m, c.a, c.b, c.c, c.n, c.taps)
		} else {
			Fir(m, c.a, c.b, c.c, c.n, c.taps)
		}
	case 1:
		if perWord {
			reluWord(m, c.a, c.n)
		} else {
			Relu(m, c.a, c.n)
		}
	case 2:
		if perWord {
			dot = dotWord(m, c.a, c.b, c.n)
		} else {
			dot = Dot(m, c.a, c.b, c.n)
		}
	}
	return dot, panicMsg
}

// filledMemory returns a memory whose LEA-RAM holds seeded int16 values
// with the high-water mark at a seeded word anywhere in the bank, so
// the words a command writes may lie above or below it. The contents
// are stored through an unbooked span; only the load's write count and
// mark are booked, identically for every memory filled from the seed.
func filledMemory(fill int64) *mem.Memory {
	rng := rand.New(rand.NewSource(fill))
	m := mem.New()
	all := m.Span(leaAddr(0), mem.LEARAMWords, "write")
	for w := range all.Words {
		all.Words[w] = uint16(rng.Uint32())
	}
	all.Book(0, mem.LEARAMWords, rng.Intn(mem.LEARAMWords+1))
	return m
}

// diffKernel runs cmd through both implementations on identical memories
// and fails t on any observable difference.
func diffKernel(t *testing.T, cmd leaCmd) {
	t.Helper()
	span, word := cmd.memory(), cmd.memory()
	before := span.Snapshot(mem.LEARAM)
	beforeCounts, beforeHW := span.Counts(mem.LEARAM), span.HighWater(mem.LEARAM)

	gotDot, gotPanic := cmd.run(span, false)
	wantDot, wantPanic := cmd.run(word, true)

	if (gotPanic != "") != (wantPanic != "") {
		t.Fatalf("%v: span panic %q, per-word panic %q", cmd, gotPanic, wantPanic)
	}
	if gotPanic != "" {
		// The per-word loop fails part-way through; the span kernel
		// validates every window first and must fail before touching
		// anything, with mem's own range error.
		if !strings.HasPrefix(gotPanic, "mem: ") || !strings.Contains(gotPanic, "out of range") {
			t.Fatalf("%v: span panic %q is not mem's range error", cmd, gotPanic)
		}
		if d := span.Diff(before, 1); d != nil {
			t.Fatalf("%v: out-of-range command changed LEA-RAM word %d", cmd, d[0])
		}
		if span.Counts(mem.LEARAM) != beforeCounts || span.HighWater(mem.LEARAM) != beforeHW {
			t.Fatalf("%v: out-of-range command booked accesses: %+v hw %d, want %+v hw %d", cmd,
				span.Counts(mem.LEARAM), span.HighWater(mem.LEARAM), beforeCounts, beforeHW)
		}
		return
	}
	if gotDot != wantDot {
		t.Fatalf("%v: Dot = %d, per-word %d", cmd, gotDot, wantDot)
	}
	if got, want := span.Snapshot(mem.LEARAM), word.Snapshot(mem.LEARAM); !reflect.DeepEqual(got, want) {
		t.Fatalf("%v: LEA-RAM differs from per-word at word %d", cmd, word.Diff(got, 1)[0])
	}
	if got, want := span.Counts(mem.LEARAM), word.Counts(mem.LEARAM); got != want {
		t.Fatalf("%v: Counts(LEARAM) = %+v, per-word %+v", cmd, got, want)
	}
	if got, want := span.HighWater(mem.LEARAM), word.HighWater(mem.LEARAM); got != want {
		t.Fatalf("%v: HighWater(LEARAM) = %d, per-word %d", cmd, got, want)
	}
}

// randomCmd draws a command whose windows cluster in one 96-word region,
// so in/coef/out overlap often, occasionally reaching past either end of
// LEA-RAM.
func randomCmd(rng *rand.Rand) leaCmd {
	base := rng.Intn(mem.LEARAMWords)
	switch rng.Intn(8) {
	case 0:
		base = mem.LEARAMWords - 40 // windows straddle the bank end
	case 1:
		base = -4 // and the start
	}
	off := func() int { return base + rng.Intn(96) }
	cmd := leaCmd{op: byte(rng.Intn(3)), a: off(), b: off(), c: off(),
		n: rng.Intn(80), taps: rng.Intn(20), fill: rng.Int63()}
	if rng.Intn(16) == 0 {
		cmd.n = -rng.Intn(4) // degenerate lengths are no-ops
	}
	return cmd
}

func TestKernelsMatchPerWordOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var seen, panicked [3]int
	for i := 0; i < 600; i++ {
		cmd := randomCmd(rng)
		diffKernel(t, cmd)
		seen[cmd.op]++
		if _, msg := cmd.run(mem.New(), false); msg != "" {
			panicked[cmd.op]++
		}
	}
	for op := range seen {
		if seen[op] == 0 || panicked[op] == 0 || panicked[op] == seen[op] {
			t.Errorf("op %d: %d draws, %d out of range; want both in- and out-of-range draws", op, seen[op], panicked[op])
		}
	}
}

// TestKernelsOverlappingWindows pins the value-propagating overlaps
// explicitly: a FIR whose output window starts inside its input window
// reads outputs it has already stored, and Dot/Relu over shared words.
func TestKernelsOverlappingWindows(t *testing.T) {
	for _, cmd := range []leaCmd{
		{op: 0, a: 100, b: 300, c: 101, n: 40, taps: 5, fill: 1},  // out one past in
		{op: 0, a: 100, b: 300, c: 99, n: 40, taps: 5, fill: 2},   // out one before in
		{op: 0, a: 100, b: 102, c: 104, n: 40, taps: 8, fill: 3},  // all three overlap
		{op: 0, a: 100, b: 100, c: 100, n: 16, taps: 16, fill: 4}, // identical windows
		{op: 1, a: 50, n: 64, fill: 5},
		{op: 2, a: 50, b: 50, n: 64, fill: 6},
		{op: 2, a: 50, b: 53, n: 64, fill: 7},
	} {
		diffKernel(t, cmd)
	}
}

func TestKernelsOutOfRangeLeaveLEARAMUntouched(t *testing.T) {
	end := mem.LEARAMWords
	for _, cmd := range []leaCmd{
		{op: 0, a: end - 10, b: 0, c: 100, n: 20, taps: 4, fill: 1}, // in runs past the end
		{op: 0, a: 0, b: end - 2, c: 100, n: 20, taps: 4, fill: 2},  // coef does
		{op: 0, a: 0, b: 100, c: end - 3, n: 20, taps: 4, fill: 3},  // out does, after writes
		{op: 0, a: -1, b: 100, c: 200, n: 20, taps: 4, fill: 4},
		{op: 1, a: end - 5, n: 10, fill: 5},
		{op: 2, a: 0, b: end - 1, n: 2, fill: 6},
		{op: 2, a: end, b: 0, n: 1, fill: 7},
	} {
		span := filledMemory(cmd.fill)
		if _, msg := cmd.run(span, false); msg == "" {
			t.Fatalf("%v: no panic", cmd)
		}
		diffKernel(t, cmd)
	}
}

// FuzzLEAKernels drives the differential check with arbitrary windows.
// A positive coefSum turns a Fir command into the bounded-coefficient
// mode: taps round up to whole 8-tap blocks and the coefficient window
// holds seeded coefficients with Σ|c| = min(coefSum, 65536), so the
// vector path runs whenever the output window misses the coefficients
// (65536 itself must fall back to the Go loop).
func FuzzLEAKernels(f *testing.F) {
	f.Add(byte(0), 0, 200, 400, 40, 8, int64(1), 0)
	f.Add(byte(0), 100, 300, 101, 40, 5, int64(2), 0)
	f.Add(byte(1), 2040, 0, 0, 16, 0, int64(3), 0)
	f.Add(byte(2), 50, 53, 0, 64, 0, int64(4), 0)
	f.Add(byte(2), -1, 0, 0, 1, 0, int64(5), 0)
	f.Add(byte(0), 0, 200, 400, 80, 16, int64(6), 65535)
	f.Add(byte(0), 100, 300, 101, 72, 32, int64(7), 40000)
	f.Add(byte(0), 0, 200, 400, 40, 8, int64(8), 65536)
	f.Fuzz(func(t *testing.T, op byte, a, b, c, n, taps int, fill int64, coefSum int) {
		// Keep windows near the bank so runs stay cheap; the range
		// logic only cares about the ends.
		clamp := func(v, lo, hi int) int { return min(max(v, lo), hi) }
		cmd := leaCmd{op: op % 3,
			a: clamp(a, -64, mem.LEARAMWords+64), b: clamp(b, -64, mem.LEARAMWords+64),
			c: clamp(c, -64, mem.LEARAMWords+64),
			n: clamp(n, -4, 256), taps: clamp(taps, -4, 64), fill: fill}
		if cmd.op == 0 && coefSum > 0 {
			cmd.taps = 8 * (1 + clamp(cmd.taps, 0, 63)/8)
			coefs := boundedCoefs(rand.New(rand.NewSource(fill)), cmd.taps, min(coefSum, 1<<16))
			cmd.load = []window{{cmd.b, coefs}}
		}
		diffKernel(t, cmd)
	})
}
