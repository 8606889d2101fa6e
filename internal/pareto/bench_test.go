package pareto

import (
	"fmt"
	"testing"
)

// benchSols builds a deterministic pseudo-random solution cloud of size n.
// A linear congruential generator keeps the input identical across runs
// and Go versions (no math/rand in exact packages).
func benchSols(n int) []Sol {
	sols := make([]Sol, n)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state >> 33)
	}
	for i := range sols {
		sols[i] = Sol{W: next() % 100000, D: next() % 100000}
	}
	return sols
}

// BenchmarkParetoFilter measures Filter, the sort-then-sweep frontier
// extraction on bare objective vectors. The sort dominates the cost, so
// this benchmark records the sort.Slice → slices.SortFunc conversion
// (reflection-based swapper vs monomorphised compare).
func BenchmarkParetoFilter(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		sols := benchSols(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Filter(sols)
			}
		})
	}
}

// BenchmarkParetoFilterItems measures the payload-carrying variant used by
// the tree-maintaining algorithms (stable sort + sweep over Item[T], in
// place; each iteration refilters a fresh copy of the input).
func BenchmarkParetoFilterItems(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		sols := benchSols(n)
		items := make([]Item[int], n)
		for i, s := range sols {
			items[i] = Item[int]{Sol: s, Val: i}
		}
		buf := make([]Item[int], n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, items)
				FilterItems(buf)
			}
		})
	}
}
