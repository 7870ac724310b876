// Package lea models the MSP430FR5994's Low Energy Accelerator: a vector
// math coprocessor operating on a dedicated 4 KB volatile RAM (LEA-RAM).
//
// The kernels here are the data-plane only — they compute real results on
// int16 fixed-point samples so that the evaluation's correctness checks
// (Figure 12, Table 5) compare actual numbers, not placeholders. Cycle and
// energy costs are charged by the execution kernel before these functions
// run; a power failure therefore aborts a vector command before it
// touches LEA-RAM, matching the command-granularity behaviour of the real
// accelerator.
package lea

import "easeio/internal/mem"

func leaAddr(off int) mem.Addr { return mem.Addr{Bank: mem.LEARAM, Word: off} }

// Every kernel takes its LEA-RAM windows as mem spans, all validated
// before the first word is touched, so an out-of-range command panics
// with mem's range error and LEA-RAM unchanged. The loops then run over
// the backing words and book the whole command's accesses at once:
// exactly the reads, writes and high-water a per-word Read/Write loop
// would have counted.

// sat16 saturates an accumulator to int16, as the LEA's fixed-point
// pipeline does.
func sat16(v int64) int16 {
	switch {
	case v > 32767:
		return 32767
	case v < -32768:
		return -32768
	default:
		return int16(v)
	}
}

// sat32 saturates an accumulator to int32 (the LEA's MAC result width).
func sat32(v int64) int32 {
	switch {
	case v > 2147483647:
		return 2147483647
	case v < -2147483648:
		return -2147483648
	default:
		return int32(v)
	}
}

// Fir computes a direct-form FIR convolution over LEA-RAM:
//
//	out[i] = sat( Σ_{j<taps} coef[j]·in[i+j] >> 15 )  for i ≤ inLen−taps
//
// using Q15 fixed-point coefficients, mirroring the LEA's FIR command.
func Fir(m *mem.Memory, inOff, coefOff, outOff, inLen, taps int) {
	outs := FirOutLen(inLen, taps)
	if outs == 0 {
		return
	}
	in := m.Span(leaAddr(inOff), inLen, "read")
	coef := m.Span(leaAddr(coefOff), taps, "read")
	out := m.Span(leaAddr(outOff), outs, "write")
	// Output i is stored before input window i+1 is read, as the per-word
	// command does, so overlapping windows see the same values.
	c := coef.Words
	for i := range out.Words {
		x := in.Words[i : i+taps]
		out.Words[i] = uint16(sat16(dot16(x, c) >> 15))
	}
	n := int64(outs) * int64(taps)
	in.Book(n, 0, 0)
	coef.Book(n, 0, 0)
	out.Book(0, int64(outs), outs)
}

// dot16 returns the exact int64 dot product of two equal-length int16
// vectors. The four accumulators reorder an integer sum, which cannot
// change it (|term| < 2^30, so no realistic length overflows int64).
func dot16(a, b []uint16) int64 {
	var s0, s1, s2, s3 int64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += int64(int16(a[0])) * int64(int16(b[0]))
		s1 += int64(int16(a[1])) * int64(int16(b[1]))
		s2 += int64(int16(a[2])) * int64(int16(b[2]))
		s3 += int64(int16(a[3])) * int64(int16(b[3]))
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for i, x := range a {
		s0 += int64(int16(x)) * int64(int16(b[i]))
	}
	return s0 + s1 + s2 + s3
}

// FirOutLen returns the number of output samples Fir produces.
func FirOutLen(inLen, taps int) int {
	if taps <= 0 || inLen < taps {
		return 0
	}
	return inLen - taps + 1
}

// Relu clamps n int16 samples at LEA-RAM offset off to be non-negative.
func Relu(m *mem.Memory, off, n int) {
	if n <= 0 {
		return
	}
	v := m.Span(leaAddr(off), n, "read")
	var clamped int64
	written := 0
	for i, w := range v.Words {
		if int16(w) < 0 {
			v.Words[i] = 0
			clamped++
			written = i + 1
		}
	}
	v.Book(int64(n), clamped, written)
}

// Dot returns the int32 dot product of two n-sample int16 vectors in
// LEA-RAM.
func Dot(m *mem.Memory, aOff, bOff, n int) int32 {
	if n <= 0 {
		return 0
	}
	a := m.Span(leaAddr(aOff), n, "read")
	b := m.Span(leaAddr(bOff), n, "read")
	acc := dot16(a.Words, b.Words)
	a.Book(int64(n), 0, 0)
	b.Book(int64(n), 0, 0)
	return sat32(acc)
}

// Reference implementations over plain slices, used by the applications to
// compute golden (continuous-power) results without a device.

// FirRef computes the same FIR convolution over plain int16 slices.
func FirRef(in, coef []int16) []int16 {
	taps := len(coef)
	if taps == 0 || len(in) < taps {
		return nil
	}
	out := make([]int16, len(in)-taps+1)
	for i := range out {
		var acc int64
		for j := 0; j < taps; j++ {
			acc += int64(in[i+j]) * int64(coef[j])
		}
		out[i] = sat16(acc >> 15)
	}
	return out
}

// ReluRef clamps a copy of in to be non-negative.
func ReluRef(in []int16) []int16 {
	out := make([]int16, len(in))
	for i, v := range in {
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// DotRef returns the dot product of two equal-length int16 slices.
func DotRef(a, b []int16) int32 {
	var acc int64
	for i := range a {
		acc += int64(a[i]) * int64(b[i])
	}
	return sat32(acc)
}
