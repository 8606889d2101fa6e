// Package exactness seeds violations for the patlint exact analyzer: the
// fixture is classified like an exact-arithmetic package, so every float
// and non-integer math.* use below is a finding.
package exactness

import "math"

// Scale routes a value through floating point — findings for the float64
// conversion and the floating literal.
func Scale(x int64) int64 {
	f := float64(x) * 1.5 // want(exact): use of float64 in exact package (int64 arithmetic only) // want(exact): floating-point literal 1.5 in exact package (int64 arithmetic only)
	return int64(f)
}

// Root calls math.Sqrt — a finding. The math.MaxInt64 guard is an exact
// integer constant and stays allowed.
func Root(x int64) int64 {
	if x > math.MaxInt64/2 {
		return x
	}
	return int64(math.Sqrt(float64(x))) // want(exact): math.Sqrt in exact package (floating-point math is banned; use exact int64 helpers) // want(exact): use of float64 in exact package (int64 arithmetic only)
}

// Exact is clean: int64 arithmetic only, and the multiply has a constant
// operand so exactoverflow stays quiet too — no findings.
func Exact(x int64) int64 {
	return 2*x + 1
}
