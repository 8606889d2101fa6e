// Package param implements parameterised (symbolic) routing tree solutions
// used to build lookup tables (§V-A of the paper). On the rank-space Hanan
// grid of a degree-n pattern, every distance is a nonnegative integer
// combination of the 2n-2 gap lengths l_1..l_{2n-2}. A solution is
// therefore represented not as a concrete (w,d) pair but as
//
//	( Σ_k W_k·l_k ,  max_i Σ_k D_ik·l_k )
//
// with an integer coefficient vector W and matrix D (one row per sink),
// exactly the (W, D) form of §V-A. Pruning uses the safe decision
// procedure substituted for the paper's SMT check (Lemma 1): solution 2 is
// pruned by solution 1 when W1 <= W2 componentwise and every row of D1 is
// componentwise dominated by some row of D2 — both conditions imply the
// first-order formula (2) for all l >= 0, so pruning never removes a
// topology that is uniquely optimal for some concrete instance.
//
// EnumeratePattern, the symbolic Pareto-DW, runs on the same grid
// skeleton as the concrete DP (dw.Skeleton: the pruning lemmas, the
// subset order and the splits) and differs from it only in its states:
// symbolic solutions, filtered by Lemma 1's parametric dominance. That
// dominance is a partial order, so no sort-and-scan or merge of
// internal/pareto applies to it, and filterPush compares pairwise.
package param

import (
	"fmt"

	"patlabor/internal/pareto"
)

// Vec is a coefficient vector over the gap lengths: index k < n-1 refers
// to horizontal gap H[k], index k >= n-1 to vertical gap V[k-(n-1)].
type Vec []int16

// Add returns a+b. The operands must have equal length.
func (a Vec) Add(b Vec) Vec {
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// LE reports whether a <= b componentwise.
func (a Vec) LE(b Vec) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Eq reports whether a == b.
func (a Vec) Eq(b Vec) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Eval returns Σ_k a_k·l_k for the concatenated gap vector l = H ++ V.
func (a Vec) Eval(h, v []int64) int64 {
	var s int64
	n1 := len(h)
	for k, c := range a {
		if c == 0 {
			continue
		}
		if k < n1 {
			s += int64(c) * h[k]
		} else {
			s += int64(c) * v[k-n1]
		}
	}
	return s
}

// Solution is a parameterised objective vector: wirelength coefficients W
// and delay coefficient rows D, one row per sink of the subtree (row order
// carries no meaning; the delay is the max over rows).
type Solution struct {
	W Vec
	D []Vec
}

// Eval instantiates the solution on concrete gap lengths.
func (s Solution) Eval(h, v []int64) pareto.Sol {
	var d int64
	for _, row := range s.D {
		if x := row.Eval(h, v); x > d {
			d = x
		}
	}
	return pareto.Sol{W: s.W.Eval(h, v), D: d}
}

// Prunes reports whether s renders t redundant for every nonnegative
// assignment of gap lengths: s's wirelength never exceeds t's and s's
// delay never exceeds t's. This is the sound substitution for the paper's
// SMT check of Lemma 1 (see the package comment).
func (s Solution) Prunes(t Solution) bool {
	if !s.W.LE(t.W) {
		return false
	}
	for _, rs := range s.D {
		matched := false
		for _, rt := range t.D {
			if rs.LE(rt) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// String renders the solution compactly for diagnostics.
func (s Solution) String() string {
	return fmt.Sprintf("W=%v D=%v", s.W, s.D)
}
