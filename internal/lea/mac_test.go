// Tests that reach the vector kernels: FIR commands with coefficients
// under the firCoefBound, at the bound's edges and around it, and dot
// products that hit the one PMADDWD pair sum int32 cannot hold. Every
// command is compared with the per-word oracles of span_test.go on
// words, counters and high-water, so the same tests pin the portable
// build, where these commands take the Go loops.

package lea

import (
	"math/rand"
	"testing"

	"easeio/internal/mem"
)

// boundedCoefs returns taps seeded coefficients with Σ|c| = sum exactly
// (sum ≤ taps·32767), each sign random.
func boundedCoefs(rng *rand.Rand, taps, sum int) []int16 {
	out := make([]int16, taps)
	rem := sum
	for _, j := range rng.Perm(taps) {
		taps--
		lo, hi := max(0, rem-taps*32767), min(32767, rem)
		v := lo + rng.Intn(hi-lo+1)
		rem -= v
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[j] = int16(v)
	}
	return out
}

func repeat(v int16, n int) []int16 {
	out := make([]int16, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// firCase is a Fir command whose coefficient window holds coefs; fast
// says whether firFast must accept it.
type firCase struct {
	name string
	cmd  leaCmd
	fast bool
}

func (fc firCase) check(t *testing.T) {
	t.Helper()
	coefs := u16(fc.cmd.load[len(fc.cmd.load)-1].vals)
	if got := firFast(fc.cmd.b, fc.cmd.c, FirOutLen(fc.cmd.n, fc.cmd.taps), coefs); got != fc.fast {
		t.Fatalf("%s: firFast = %v, want %v", fc.name, got, fc.fast)
	}
	diffKernel(t, fc.cmd)
}

func TestFirVectorPathMatchesPerWordOracle(t *testing.T) {
	const in, coef, out = 100, 600, 800
	// Σ|c| = 65535 with the largest magnitudes first, against inputs of
	// −32768: window partial sums reach 2^31 − 32768, the bound's edge.
	edge := append([]int16{-32768, -32767}, make([]int16, 14)...)
	over := append([]int16{-32768, -32768}, make([]int16, 14)...)
	rng := rand.New(rand.NewSource(1))
	spread := boundedCoefs(rng, 32, 65535)
	min16 := repeat(-32768, 120)
	cases := []firCase{
		{"edge", leaCmd{a: in, b: coef, c: out, n: 120, taps: 16, fill: 1,
			load: []window{{in, min16}, {coef, edge}}}, true},
		{"edge max input", leaCmd{a: in, b: coef, c: out, n: 120, taps: 16, fill: 2,
			load: []window{{in, repeat(32767, 120)}, {coef, edge}}}, true},
		{"spread edge", leaCmd{a: in, b: coef, c: out, n: 120, taps: 32, fill: 3,
			load: []window{{in, min16}, {coef, spread}}}, true},
		{"over bound", leaCmd{a: in, b: coef, c: out, n: 120, taps: 16, fill: 4,
			load: []window{{in, min16}, {coef, over}}}, false},
		{"over bound spread", leaCmd{a: in, b: coef, c: out, n: 120, taps: 32, fill: 5,
			load: []window{{in, min16}, {coef, boundedCoefs(rng, 32, 65536)}}}, false},
		{"taps not a multiple of 8", leaCmd{a: in, b: coef, c: out, n: 120, taps: 12, fill: 6,
			load: []window{{coef, boundedCoefs(rng, 12, 30000)}}}, false},
		// Overlapping input and output windows stay on the vector path:
		// each output is stored before the next window is read.
		{"out one past in", leaCmd{a: in, b: coef, c: in + 1, n: 120, taps: 16, fill: 7,
			load: []window{{coef, boundedCoefs(rng, 16, 65535)}}}, true},
		{"out one before in", leaCmd{a: in, b: coef, c: in - 1, n: 120, taps: 16, fill: 8,
			load: []window{{coef, boundedCoefs(rng, 16, 65535)}}}, true},
		{"out inside window", leaCmd{a: in, b: coef, c: in + 9, n: 120, taps: 16, fill: 9,
			load: []window{{coef, boundedCoefs(rng, 16, 50000)}}}, true},
		{"out equals in", leaCmd{a: in, b: coef, c: in, n: 120, taps: 8, fill: 10,
			load: []window{{coef, boundedCoefs(rng, 8, 65535)}}}, true},
		// An output window over the coefficients could change them, and
		// their bound, mid-command: the Go loop takes it.
		{"out over coef tail", leaCmd{a: in, b: coef, c: coef + 15, n: 40, taps: 16, fill: 11,
			load: []window{{coef, boundedCoefs(rng, 16, 20000)}}}, false},
		{"out over coef head", leaCmd{a: in, b: coef, c: coef - 24, n: 40, taps: 16, fill: 12,
			load: []window{{coef, boundedCoefs(rng, 16, 20000)}}}, false},
		{"out just before coef", leaCmd{a: in, b: coef, c: coef - 25, n: 40, taps: 16, fill: 13,
			load: []window{{coef, boundedCoefs(rng, 16, 20000)}}}, true},
		{"out just after coef", leaCmd{a: in, b: coef, c: coef + 16, n: 40, taps: 16, fill: 14,
			load: []window{{coef, boundedCoefs(rng, 16, 20000)}}}, true},
		{"coef inside input", leaCmd{a: in, b: in + 30, c: out, n: 120, taps: 24, fill: 15,
			load: []window{{in + 30, boundedCoefs(rng, 24, 65535)}}}, true},
	}
	for _, fc := range cases {
		fc.check(t)
	}
}

// TestFirVectorPathRandom draws bounded-coefficient commands with
// windows clustered as in randomCmd, so in/out overlaps are common.
func TestFirVectorPathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	fast := 0
	const draws = 1500
	for i := 0; i < draws; i++ {
		cmd := randomCmd(rng)
		cmd.op = 0
		cmd.taps = 8 * (1 + rng.Intn(4))
		sum := 1 + rng.Intn(1<<16)
		if rng.Intn(8) == 0 {
			sum = 1<<16 - rng.Intn(2) // the bound's edge, both sides
		}
		coefs := boundedCoefs(rng, cmd.taps, sum)
		cmd.load = []window{{cmd.b, coefs}}
		if rng.Intn(4) == 0 {
			cmd.load = []window{{cmd.a, repeat(-32768, max(cmd.n, 0))}, {cmd.b, coefs}}
		}
		diffKernel(t, cmd)
		inBank := func(off, n int) bool { return off >= 0 && off+n <= mem.LEARAMWords }
		if outs := FirOutLen(cmd.n, cmd.taps); outs > 0 && inBank(cmd.a, cmd.n) && inBank(cmd.b, cmd.taps) &&
			inBank(cmd.c, outs) && firFast(cmd.b, cmd.c, outs, u16(coefs)) {
			fast++
		}
	}
	t.Logf("%d of %d draws met the vector-path conditions", fast, draws)
	if fast < draws/4 {
		t.Errorf("%d of %d draws met the vector-path conditions; want at least a quarter", fast, draws)
	}
}

// TestDotWrappedPairSum pins the pair sum PMADDWD cannot represent:
// (−32768)·(−32768) twice is +2^31, which wraps to 0x80000000 in an
// int32 lane. In a·b it cancels against a large negative pair, so the
// saturated int32 result still shows whether it was corrected.
func TestDotWrappedPairSum(t *testing.T) {
	a := []int16{-32768, -32768, -32768, -32768, 0, 0, 0, 0}
	b := []int16{-32768, -32768, 32767, 32767, 0, 0, 0, 0}
	if got, want := DotRef(a, b), int32(65536); got != want {
		t.Fatalf("DotRef = %d, want %d", got, want)
	}
	min16 := repeat(-32768, 200)
	for _, cmd := range []leaCmd{
		{op: 2, a: 0, b: 100, n: 8, fill: 1, load: []window{{0, a}, {100, b}}},
		{op: 2, a: 0, b: 100, n: 11, fill: 2, load: []window{{0, a}, {100, b}}}, // plus a scalar tail
		{op: 2, a: 0, b: 300, n: 200, fill: 3, load: []window{{0, min16}, {300, min16}}},
		{op: 2, a: 0, b: 0, n: 64, fill: 4, load: []window{{0, min16}}},
	} {
		diffKernel(t, cmd)
	}
	got := dotMAC(u16(a), u16(b))
	if got != 65536 {
		t.Errorf("dotMAC = %d, want 65536", got)
	}
	if got, want := dotMAC(u16(min16[:64]), u16(min16[:64])), int64(64)<<30; got != want {
		t.Errorf("dotMAC over -32768 = %d, want %d", got, want)
	}
}

func u16(v []int16) []uint16 {
	out := make([]uint16, len(v))
	for i, x := range v {
		out[i] = uint16(x)
	}
	return out
}

// BenchmarkFir times one 32-tap, 64-output command, the shipped fir
// app's block, on the vector path (bounded coefficients) and on the Go
// loop (Σ|c| at the bound).
func BenchmarkFir(b *testing.B) {
	for _, bc := range []struct {
		name string
		sum  int
	}{{"vector", 32767}, {"go", 1 << 16}} {
		b.Run(bc.name, func(b *testing.B) {
			cmd := leaCmd{a: 0, b: 320, c: 360, n: 64 + 31, taps: 32, fill: 1}
			cmd.load = []window{{cmd.b, boundedCoefs(rand.New(rand.NewSource(1)), 32, bc.sum)}}
			m := cmd.memory()
			for i := 0; i < b.N; i++ {
				Fir(m, cmd.a, cmd.b, cmd.c, cmd.n, cmd.taps)
			}
		})
	}
}

// BenchmarkDot times the weather dense layer's 226-sample dot product.
func BenchmarkDot(b *testing.B) {
	m := filledMemory(1)
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += Dot(m, 0, 700, 226)
	}
	_ = sink
}
