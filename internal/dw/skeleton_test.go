package dw

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
)

// The reference DP of ref_test.go reads the skeleton through these names.
func (c *computation) splits(q int) []int      { return c.Splits(q) }
func (c *computation) insideNodes(q int) []int { return c.Inside(q) }

// TestNextSubsetOrder checks that NextSubset walks every nonempty subset
// once, in increasing popcount order and increasing value within a
// popcount, and ends after the full set.
func TestNextSubsetOrder(t *testing.T) {
	for m := 1; m <= 12; m++ {
		s := &Skeleton{m: m}
		var got []int
		for q := 1; q != 0; q = s.NextSubset(q) {
			got = append(got, q)
		}
		want := make([]int, 0, 1<<m-1)
		for q := 1; q < 1<<m; q++ {
			want = append(want, q)
		}
		slices.SortFunc(want, func(x, y int) int {
			if c := cmp.Compare(bits.OnesCount(uint(x)), bits.OnesCount(uint(y))); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("m=%d: order %v, want %v", m, got, want)
		}
	}
}
