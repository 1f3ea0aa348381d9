package hull

import "rexptree/internal/geom"

// poly is a polynomial in τ of degree at most MaxDims-1 — the product
// of the extents of the dimensions computed before the last one — as
// coefficients by ascending power.
type poly [geom.MaxDims]float64

// polyMul multiplies p, whose first n coefficients are set, by the
// linear factor (h + w·τ).
func polyMul(p poly, n int, h, w float64) poly {
	var out poly
	for i, c := range p[:n] {
		out[i] += c * h
		out[i+1] += c * w
	}
	return out
}

// median implements Lemma 4.2: given the extent polynomials of the
// already-computed dimensions — extents h[k] + w[k]·τ at the
// computation time — it returns the median position m in (0, Φ) at
// which the bridge for the next dimension must be found.
//
// With no computed dimensions the hyper-volume polynomial is the
// constant 1 and m = Φ/2, recovering Lemma 4.1.
func median(h, w []float64, phi float64) float64 {
	c := poly{1}
	for k := range h {
		c = polyMul(c, k+1, h[k], w[k])
	}
	var num, den float64
	pw := phi // Φ^(i+1)
	for i, ci := range c[:len(h)+1] {
		num += ci * pw * phi / float64(i+2)
		den += ci * pw / float64(i+1)
		pw *= phi
	}
	if den == 0 {
		return phi / 2
	}
	m := num / den
	if m < 0 {
		m = 0
	}
	if m > phi {
		m = phi
	}
	return m
}
