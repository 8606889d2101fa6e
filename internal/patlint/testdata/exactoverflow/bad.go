// Package exactoverflow seeds violations for the exact-arithmetic
// overflow analyzer: int64 products, shifts and loop accumulations over
// values dataflow cannot bound.
package exactoverflow

// dist returns an unbounded int64 (no //patlint:checked annotation).
func dist(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Price multiplies two unbounded int64 domain values.
func Price(cost, d int64) int64 {
	return cost * d // want(exactoverflow): int64 multiply of two unbounded values "cost * d" (may wrap silently; use param.MulCheck or bound an operand)
}

// Pack shifts an unbounded value into the high bits.
func Pack(w, d int64) int64 {
	return w<<20 | d // want(exactoverflow): left shift of unbounded int64 "w << 20" (may wrap silently; use param.ShiftCheck or bound the operand)
}

// SumDists accumulates an unbounded call result in a loop: the sum grows
// with the iteration count.
func SumDists(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += dist(x) // want(exactoverflow): loop accumulates unbounded int64 call result into "s" (sum may wrap silently; use geom.AddCheck/param.AddCheck)
	}
	return s
}

// ScaleInPlace compounds an unbounded product in place.
func ScaleInPlace(prices []int64, rate int64) {
	for i := range prices {
		prices[i] *= rate // want(exactoverflow): int64 *= of two unbounded values (may wrap silently; use param.MulCheck or bound an operand)
	}
}
