// Package sorthygiene seeds violations for the patlint sortslice
// analyzer: the reflection-based sort.Slice/sort.SliceStable are banned
// module-wide in favour of the monomorphised slices functions.
package sorthygiene

import (
	"slices"
	"sort"
)

// Reflective uses the banned reflection-based sorts — two findings.
func Reflective(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })       // want(sortslice): sort.Slice uses the reflection-based swapper; use slices.SortFunc with an explicit total-order compare
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want(sortslice): sort.SliceStable uses the reflection-based swapper; use slices.SortStableFunc with an explicit total-order compare
}

// Monomorphic uses the blessed replacements — no findings.
func Monomorphic(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b })
	slices.SortStableFunc(xs, func(a, b int) int { return a - b })
}

// Ints uses the non-reflective std helper — allowed.
func Ints(xs []int) {
	sort.Ints(xs)
}
