package lea

// The vector kernels (mac_amd64.s) use SSE2 PMADDWD. SSE2 is part of
// the amd64 baseline, so there is no CPU detection.

// firQ15 computes out[i] = sat16(Σ_j in[i+j]·coef[j] >> 15) for every i,
// storing each output before it reads the next input window. It requires
// len(coef) to be a positive multiple of 8, len(in) ≥ len(out)+len(coef)−1,
// out disjoint from coef, and Σ|coef| < firCoefBound, under which its
// int32 lane sums are exact.
//
//go:noescape
func firQ15(out, in, coef []uint16)

// dot8 returns the exact int64 dot product of two vectors whose common
// length is a multiple of 8.
//
//go:noescape
func dot8(a, b []uint16) int64

// firMAC runs a FIR command over its validated windows, on firQ15 when
// firFast admitted it (fast) and on firGo otherwise.
func firMAC(out, in, coef []uint16, fast bool) {
	if fast {
		firQ15(out, in, coef)
		return
	}
	firGo(out, in, coef)
}

// dotMAC returns the exact dot product of two equal-length vectors: the
// whole 8-sample blocks on PMADDWD, the rest on dot16.
func dotMAC(a, b []uint16) int64 {
	n := len(a) &^ 7
	return dot8(a[:n], b[:n]) + dot16(a[n:], b[n:])
}
