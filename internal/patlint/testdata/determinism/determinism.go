// Package determinism seeds violations for the patlint maprange and
// nondet analyzers: the fixture is classified like an algorithm package,
// so map iteration order must not leak and the wall clock is off limits.
package determinism

import (
	"math/rand" // want(nondet): import of math/rand in algorithm package (results must be deterministic; seed-free randomness is banned)
	"slices"
	"time"
)

// Keys leaks map iteration order into the returned slice — a maprange
// finding.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want(maprange): map iteration order flows into "out" with no subsequent sort (output order is nondeterministic)
		out = append(out, k)
	}
	return out
}

// SortedKeys collects then sorts — the blessed idiom, no finding.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Total folds a map into an order-insensitive scalar — no finding.
func Total(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// Stamp reads the wall clock — a nondet finding.
func Stamp() int64 {
	return time.Now().UnixNano() // want(nondet): time.Now in algorithm package (wall-clock reads make runs nondeterministic)
}

// Jitter draws from math/rand — the import is the nondet finding.
func Jitter() int64 {
	return rand.Int63()
}
