// Package pareto implements the exact bicriterion solution algebra used by
// every algorithm in the library: solution vectors (w,d), Pareto dominance
// and filtering, and quality indicators (hypervolume, coverage) used by
// the experiment harness.
//
// It also holds the one Pareto kernel of the library (kernel.go): the ⊕
// walk Join, which joins two canonical frontiers at a common root, and
// the two-way merge Union, which folds one frontier, extended by a wire,
// into another (the S+x operator of the Pareto-DW recurrence). Both work
// on index-carrying Pairs with the tie order (W, D, A, B) and never sort.
// The concrete DP (internal/dw), the hierarchical stitch (internal/hier)
// and Pareto-KS (internal/ks) all call them; FilterItems is the one
// in-place sort-and-scan filter for payload-carrying items.
//
// Both objectives are minimised. All values are exact int64; dominance is
// exact with no tolerances.
package pareto

import (
	"cmp"
	"fmt"
	"slices"
)

// Sol is one solution's objective vector: total wirelength W and delay D
// (the maximum source-to-sink path length).
type Sol struct {
	W, D int64
}

// String renders the solution as "(w,d)".
func (s Sol) String() string { return fmt.Sprintf("(%d,%d)", s.W, s.D) }

// Dominates reports whether s weakly dominates t: s.W<=t.W and s.D<=t.D.
// Every solution weakly dominates itself.
func (s Sol) Dominates(t Sol) bool { return s.W <= t.W && s.D <= t.D }

// StrictlyDominates reports whether s dominates t and s != t.
func (s Sol) StrictlyDominates(t Sol) bool { return s.Dominates(t) && s != t }

// Compare is a total order on solution vectors, lexicographic by (W, D):
// the canonical order of a filtered Pareto set, and the comparator every
// canonical sort in the library uses.
func (s Sol) Compare(t Sol) int {
	if c := cmp.Compare(s.W, t.W); c != 0 {
		return c
	}
	return cmp.Compare(s.D, t.D)
}

// Filter returns the Pareto frontier of sols: all solutions not strictly
// dominated by another, with duplicates removed, in canonical order
// (W strictly increasing, D strictly decreasing). The input is not
// modified. Runs in O(k log k).
func Filter(sols []Sol) []Sol {
	if len(sols) == 0 {
		return nil
	}
	cp := append([]Sol(nil), sols...)
	slices.SortFunc(cp, Sol.Compare)
	out := cp[:0]
	bestD := int64(1<<63 - 1)
	for _, s := range cp {
		if s.D < bestD {
			out = append(out, s)
			bestD = s.D
		}
	}
	return append([]Sol(nil), out...)
}

// IsFrontier reports whether sols is already a canonical Pareto frontier:
// W strictly increasing and D strictly decreasing.
func IsFrontier(sols []Sol) bool {
	for i := 1; i < len(sols); i++ {
		if sols[i].W <= sols[i-1].W || sols[i].D >= sols[i-1].D {
			return false
		}
	}
	return true
}

// Contains reports whether the frontier (any solution set) contains a
// solution weakly dominating s. When sols is a true Pareto frontier of the
// instance this tests whether s is achievable at least as well.
func Contains(sols []Sol, s Sol) bool {
	for _, t := range sols {
		if t.Dominates(s) {
			return true
		}
	}
	return false
}

// CountCovered returns how many solutions of truth are matched by found:
// a truth solution is covered when found contains a solution weakly
// dominating it. With truth the exact frontier, covered == len(truth)
// iff found attains every Pareto-optimal point.
func CountCovered(found, truth []Sol) int {
	n := 0
	for _, s := range truth {
		if Contains(found, s) {
			n++
		}
	}
	return n
}

// Hypervolume returns the area dominated by the frontier within the
// rectangle bounded by ref (solutions worse than ref contribute only the
// part inside). Larger is better. The frontier need not be filtered.
//
//patlint:ignore exact quality indicator reported to harnesses only; never feeds routing arithmetic
func Hypervolume(sols []Sol, ref Sol) float64 {
	// Iterate the filtered frontier in W order; each solution contributes a
	// horizontal strip of height (prevD - s.D) truncated at ref.
	f := Filter(sols)
	var hv float64
	prevD := ref.D
	for _, s := range f {
		if s.W >= ref.W {
			break
		}
		d := s.D
		if d >= prevD {
			continue
		}
		top := prevD
		if top > ref.D {
			top = ref.D
		}
		if d < top {
			hv += float64(ref.W-s.W) * float64(top-d)
			prevD = d
		}
	}
	return hv
}

// ApproxRatio returns the smallest c >= 1 such that for every solution t in
// truth there is s in found with s.W <= c*t.W and s.D <= c*t.D (Definition 2
// of the paper). It returns +Inf-like value 1e18 when found is empty, and 1
// when found covers truth exactly. Zero-valued objectives in truth are
// treated as requiring exact attainment.
//
//patlint:ignore exact quality indicator reported to harnesses only; never feeds routing arithmetic
func ApproxRatio(found, truth []Sol) float64 {
	if len(truth) == 0 {
		return 1
	}
	if len(found) == 0 {
		return 1e18
	}
	worst := 1.0
	for _, t := range truth {
		best := 1e18
		for _, s := range found {
			c := 1.0
			if t.W > 0 {
				if r := float64(s.W) / float64(t.W); r > c {
					c = r
				}
			} else if s.W > 0 {
				continue
			}
			if t.D > 0 {
				if r := float64(s.D) / float64(t.D); r > c {
					c = r
				}
			} else if s.D > 0 {
				continue
			}
			if c < best {
				best = c
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}
