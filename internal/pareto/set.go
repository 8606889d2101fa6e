package pareto

import (
	"math"
	"slices"
	"sort"
)

// Item attaches an arbitrary payload (typically a routing tree) to a
// solution vector, so algorithms can maintain Pareto sets of concrete
// trees rather than bare objective pairs.
type Item[T any] struct {
	Sol Sol
	Val T
}

// FilterItems filters items in place to their Pareto frontier and returns
// it as a prefix of items, in canonical order (W strictly increasing, D
// strictly decreasing). The sort is stable, so of items with equal
// objective vectors the first in input order survives. The items behind
// the returned prefix are left in an unspecified order.
func FilterItems[T any](items []Item[T]) []Item[T] {
	slices.SortStableFunc(items, func(a, b Item[T]) int { return a.Sol.Compare(b.Sol) })
	k := 0
	bestD := int64(math.MaxInt64)
	for _, it := range items {
		if it.Sol.D < bestD {
			items[k] = it
			k++
			bestD = it.Sol.D
		}
	}
	return items[:k]
}

// Set maintains a Pareto frontier of payload-carrying solutions
// incrementally. The zero value is an empty set ready for use.
type Set[T any] struct {
	items []Item[T] // invariant: canonical frontier order
}

// Len returns the number of Pareto-optimal items currently held.
func (s *Set[T]) Len() int { return len(s.items) }

// Items returns the frontier in canonical order. The returned slice must
// not be modified.
func (s *Set[T]) Items() []Item[T] { return s.items }

// AppendSols appends the objective vectors of items to dst, in order: the
// operand form of Join.
func AppendSols[T any](dst []Sol, items []Item[T]) []Sol {
	for _, it := range items {
		dst = append(dst, it.Sol)
	}
	return dst
}

// Add inserts (sol, val) unless it is dominated by a held item; items that
// the newcomer strictly dominates (or duplicates) are evicted. It reports
// whether the item was inserted. Runs in O(log k + m) where m is the
// number of evictions.
func (s *Set[T]) Add(sol Sol, val T) bool {
	// Find first index with W >= sol.W.
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i].Sol.W >= sol.W })
	// Dominance by a cheaper-or-equal-W predecessor: the frontier's D is
	// decreasing in W, so only the predecessor needs checking; equal-W
	// entries at i also dominate when their D <= sol.D.
	if i > 0 && s.items[i-1].Sol.D <= sol.D {
		return false
	}
	if i < len(s.items) && s.items[i].Sol.W == sol.W && s.items[i].Sol.D <= sol.D {
		return false
	}
	// Evict items at >= W with D >= sol.D (all contiguous from i).
	j := i
	for j < len(s.items) && s.items[j].Sol.D >= sol.D {
		j++
	}
	if j > i {
		s.items = append(s.items[:i], s.items[j:]...)
	}
	s.items = append(s.items, Item[T]{})
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = Item[T]{Sol: sol, Val: val}
	return true
}

// CapItems keeps at most k items of a frontier in canonical order,
// preferring an even spread across it (both endpoints always survive).
// k <= 0 means no cap; the input slice is returned unchanged when it
// already fits. Divide-and-conquer combiners (internal/ks, internal/hier)
// use it to keep carried set sizes — and therefore combination cost —
// bounded at a small loss of frontier resolution.
func CapItems[T any](items []Item[T], k int) []Item[T] {
	if k <= 0 || len(items) <= k {
		return items
	}
	if k == 1 {
		return items[:1:1]
	}
	out := make([]Item[T], 0, k)
	for i := 0; i < k; i++ {
		idx := i * (len(items) - 1) / (k - 1)
		out = append(out, items[idx])
	}
	// Deduplicate possible repeats at the ends.
	dst := out[:1]
	for _, it := range out[1:] {
		if it.Sol != dst[len(dst)-1].Sol {
			dst = append(dst, it)
		}
	}
	return dst
}
