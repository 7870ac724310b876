package lea

// FirFast reports whether a Fir command over inLen input samples, with
// the coefficients coef at coefOff and its output at outOff, meets the
// vector path's conditions (firFast); the shipped-app guard in
// shipped_test.go uses it.
func FirFast(coefOff, outOff, inLen int, coef []uint16) bool {
	outs := FirOutLen(inLen, len(coef))
	return outs > 0 && firFast(coefOff, outOff, outs, coef)
}
