package pareto

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFilterPropertiesRandom is the property test of the Pareto filter on
// random solution slices with heavy ties and duplicates: the output is
// strictly sorted (W strictly increasing, D strictly decreasing),
// mutually non-dominated, idempotent (Filter(Filter(xs)) == Filter(xs)),
// drawn from the input, and covers every input point. It complements the
// quick-check style TestFilterProperties in pareto_test.go.
func TestFilterPropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		span := int64(1 + rng.Intn(40)) // small spans force duplicates and ties
		xs := make([]Sol, n)
		for i := range xs {
			xs[i] = Sol{W: rng.Int63n(span), D: rng.Int63n(span)}
		}
		orig := make([]Sol, len(xs))
		copy(orig, xs)
		f := Filter(xs)

		if !reflect.DeepEqual(xs, orig) {
			t.Fatalf("trial %d: Filter mutated its input", trial)
		}
		if n == 0 {
			if f != nil {
				t.Fatalf("trial %d: Filter(nil-ish) = %v", trial, f)
			}
			continue
		}
		if len(f) == 0 {
			t.Fatalf("trial %d: empty frontier from %d solutions", trial, n)
		}
		// Strictly sorted, which for a 2-objective frontier is equivalent
		// to mutual non-domination.
		if !IsFrontier(f) {
			t.Fatalf("trial %d: not canonically sorted: %v", trial, f)
		}
		for i, a := range f {
			for j, b := range f {
				if i != j && a.Dominates(b) {
					t.Fatalf("trial %d: frontier member %v dominates member %v", trial, a, b)
				}
			}
		}
		// Idempotent.
		if again := Filter(f); !reflect.DeepEqual(again, f) {
			t.Fatalf("trial %d: not idempotent: %v != %v", trial, again, f)
		}
		// Every output point is an input point.
		for _, s := range f {
			found := false
			for _, x := range xs {
				if x == s {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: frontier invented %v", trial, s)
			}
		}
		// Every input point is weakly dominated by some frontier point.
		for _, x := range xs {
			if !Contains(f, x) {
				t.Fatalf("trial %d: input %v not covered by frontier %v", trial, x, f)
			}
		}
	}
}

// TestMergeCommutative checks that folding the same frontiers with Union
// in any order yields the identical canonical frontier.
func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		mk := func() []Pair { return toPairs(randFront(rng, rng.Intn(10)), 0) }
		a, b, c := mk(), mk(), mk()
		abc := Union(nil, Union(nil, a, b, 0), c, 0)
		cba := Union(nil, Union(nil, c, b, 0), a, 0)
		if !reflect.DeepEqual(pairSols(abc), pairSols(cba)) {
			t.Fatalf("trial %d: Union order-sensitive: %v != %v", trial, abc, cba)
		}
	}
}
