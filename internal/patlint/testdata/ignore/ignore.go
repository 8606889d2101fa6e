// Package ignore exercises the //patlint:ignore escape hatch: the
// fixture is classified under every rule family, and each suppression
// style (same line, line above, declaration doc comment) silences its
// finding. One unannotated violation and one malformed directive survive.
package ignore

import "time"

// Halve demonstrates line-above suppression.
func Halve(x int64) int64 {
	//patlint:ignore exact fixture: line-above suppression
	return int64(float64(x) / 2)
}

// Stamp demonstrates same-line suppression.
func Stamp() int64 {
	return time.Now().UnixNano() //patlint:ignore nondet fixture: same-line suppression
}

// Mean demonstrates declaration-scoped suppression: the doc directive
// covers every float inside the function.
//
//patlint:ignore exact fixture: doc comment covers the whole declaration
func Mean(xs []int64) float64 {
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// Bad has no directive, so its float result type survives as a finding.
func Bad() float64 { // want(exact): use of float64 in exact package (int64 arithmetic only)
	return 0
}

// MissingReason's directive below names no reason — itself a finding, and
// it suppresses nothing.
//
//patlint:ignore exact
var MissingReason = int64(1) // wantprev(ignore): ignore directive needs a rule and a reason: //patlint:ignore <rule> <reason>
