package pareto

import "math"

// Pair is a solution together with the two indices it was built from: the
// operands of a ⊕ product, or whatever pair of indices a caller carries
// through a merge (internal/dw carries arena offsets, so its backpointers
// come straight out of the kernels).
//
// The kernels below break ties between equal solutions by the total order
// (W, D, A, B), so which of two equal solutions survives is defined here,
// not by the order in which a caller happens to present them.
type Pair struct {
	Sol
	A, B int32
}

// before reports whether x precedes y in the total order (W, D, A, B).
func (x Pair) before(y Pair) bool {
	if x.W != y.W {
		return x.W < y.W
	}
	if x.D != y.D {
		return x.D < y.D
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// Join appends to dst the ⊕ product of x and y with y's delays raised by p:
// the Pareto filter of
//
//	{ (x_i.W + y_j.W, max(x_i.D, y_j.D + p)) | i, j }
//
// which is the objective vector of joining tree i of x and tree j of y at
// a common root when y's root hangs p below it (p = 0 is the plain ⊕ of
// the Pareto-DW recurrence). Each output carries A = a+i and B = b+j of
// the pair (i, j) it came from.
//
// Both inputs must be strictly canonical (W strictly increasing, D
// strictly decreasing). Then every Pareto-optimal point of the product
// comes from exactly one pair, and a two-pointer walk visits all of them:
// emit (i, j), then advance the side holding the max (both on a tie). The
// output is strictly canonical, in O(|x|+|y|) with no sorting. Join is
// small enough to inline, which matters to the DP's merge step: it walks
// about a hundred thousand splits per degree-9 net.
func Join(dst []Pair, x, y []Sol, a, b int32, p int64) []Pair {
	for len(x) > 0 && len(y) > 0 {
		xd, yd := x[0].D, y[0].D+p
		dst = append(dst, Pair{Sol: Sol{W: x[0].W + y[0].W, D: max(xd, yd)}, A: a, B: b})
		if xd >= yd {
			x = x[1:]
			a++
		}
		if yd >= xd {
			y = y[1:]
			b++
		}
	}
	return dst
}

// Union appends to dst the Pareto filter of x ∪ (y+g), where y+g adds g to
// both objectives of every entry of y: extending each of y's trees by a
// wire of length g. Both inputs must be strictly canonical, and so is the
// output. Of entries with equal (W, D) the first in the total order
// (W, D, A, B) survives, and exact duplicates collapse. O(|x|+|y|).
func Union(dst, x, y []Pair, g int64) []Pair {
	best := int64(math.MaxInt64)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		e := y[j]
		e.W += g
		e.D += g
		if x[i].before(e) {
			e = x[i]
			i++
		} else {
			j++
		}
		if e.D < best {
			dst = append(dst, e)
			best = e.D
		}
	}
	// One side is exhausted; the other's D strictly decreases, so its
	// survivors are the suffix below best.
	for ; i < len(x); i++ {
		if x[i].D < best {
			return append(dst, x[i:]...)
		}
	}
	for ; j < len(y); j++ {
		if y[j].D+g < best {
			for _, e := range y[j:] {
				e.W += g
				e.D += g
				dst = append(dst, e)
			}
			return dst
		}
	}
	return dst
}
