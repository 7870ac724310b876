//go:build !amd64

package lea

// Without a vector kernel every command takes the portable loops.

// firMAC runs a FIR command over its validated windows.
func firMAC(out, in, coef []uint16, _ bool) { firGo(out, in, coef) }

// dotMAC returns the exact dot product of two equal-length vectors.
func dotMAC(a, b []uint16) int64 { return dot16(a, b) }
