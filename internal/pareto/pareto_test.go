package pareto

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	a := Sol{W: 1, D: 2}
	b := Sol{W: 2, D: 2}
	c := Sol{W: 2, D: 1}
	if !a.Dominates(a) {
		t.Error("self-dominance must hold (weak)")
	}
	if a.StrictlyDominates(a) {
		t.Error("no strict self-dominance")
	}
	if !a.Dominates(b) || !a.StrictlyDominates(b) {
		t.Error("a should dominate b")
	}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("a and c are incomparable")
	}
}

func TestFilterBasic(t *testing.T) {
	in := []Sol{{5, 5}, {3, 7}, {5, 5}, {7, 3}, {4, 6}, {6, 6}, {3, 8}}
	got := Filter(in)
	want := []Sol{{3, 7}, {4, 6}, {5, 5}, {7, 3}}
	if len(got) != len(want) {
		t.Fatalf("Filter = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Filter = %v, want %v", got, want)
		}
	}
}

func TestFilterEmptyAndSingle(t *testing.T) {
	if got := Filter(nil); got != nil {
		t.Errorf("Filter(nil) = %v", got)
	}
	got := Filter([]Sol{{1, 1}})
	if len(got) != 1 || got[0] != (Sol{1, 1}) {
		t.Errorf("Filter single = %v", got)
	}
}

func TestFilterProperties(t *testing.T) {
	f := func(raw []struct{ W, D uint8 }) bool {
		in := make([]Sol, len(raw))
		for i, r := range raw {
			in[i] = Sol{int64(r.W), int64(r.D)}
		}
		out := Filter(in)
		if !IsFrontier(out) {
			return false
		}
		// Every input is weakly dominated by some output.
		for _, s := range in {
			if !Contains(out, s) {
				return false
			}
		}
		// Every output appears in the input.
		inSet := make(map[Sol]bool)
		for _, s := range in {
			inSet[s] = true
		}
		for _, s := range out {
			if !inSet[s] {
				return false
			}
		}
		// Idempotence.
		again := Filter(out)
		if len(again) != len(out) {
			return false
		}
		for i := range out {
			if again[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestShift checks the S+x operator, which is Union with an empty first
// operand: every entry of y gains x in both objectives and keeps its pair.
func TestShift(t *testing.T) {
	in := []Pair{{Sol: Sol{1, 2}, A: 0}, {Sol: Sol{3, 1}, A: 1}}
	out := Union(nil, nil, in, 10)
	want := []Pair{{Sol: Sol{11, 12}, A: 0}, {Sol: Sol{13, 11}, A: 1}}
	if !slices.Equal(out, want) {
		t.Fatalf("Union(nil, y, 10) = %v, want %v", out, want)
	}
	if in[0].Sol != (Sol{1, 2}) {
		t.Fatal("Union modified its input")
	}
}

func TestCombine(t *testing.T) {
	a := []Sol{{1, 5}, {2, 3}}
	b := []Sol{{4, 1}}
	got := Join(nil, a, b, 0, 0, 0)
	// Products: (5, 5) from (0, 0) and (6, 3) from (1, 0). Both on the
	// frontier.
	want := []Pair{{Sol: Sol{5, 5}, A: 0, B: 0}, {Sol: Sol{6, 3}, A: 1, B: 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("Join = %v, want %v", got, want)
	}
	if Join(nil, nil, b, 0, 0, 0) != nil || Join(nil, a, nil, 0, 0, 0) != nil {
		t.Fatal("Join with empty operand must be empty")
	}
}

// TestCombineCommutes checks that ⊕ commutes: swapping the operands yields
// the same frontier with every pair swapped.
func TestCombineCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a := randFront(rng, 1+rng.Intn(5))
		b := randFront(rng, 1+rng.Intn(5))
		ab, ba := Join(nil, a, b, 0, 0, 0), Join(nil, b, a, 0, 0, 0)
		if len(ab) != len(ba) {
			t.Fatalf("Join not commutative: %v vs %v", ab, ba)
		}
		for i := range ab {
			if ab[i].Sol != ba[i].Sol || ab[i].A != ba[i].B || ab[i].B != ba[i].A {
				t.Fatalf("Join not commutative: %v vs %v", ab, ba)
			}
		}
	}
}

// TestCombineAssociative checks that ⊕ associates: (a ⊕ b) ⊕ c and
// a ⊕ (b ⊕ c) are the same frontier.
func TestCombineAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := randFront(rng, 1+rng.Intn(4))
		b := randFront(rng, 1+rng.Intn(4))
		c := randFront(rng, 1+rng.Intn(4))
		l := Join(nil, pairSols(Join(nil, a, b, 0, 0, 0)), c, 0, 0, 0)
		r := Join(nil, a, pairSols(Join(nil, b, c, 0, 0, 0)), 0, 0, 0)
		if !slices.Equal(pairSols(l), pairSols(r)) {
			t.Fatalf("Join not associative: %v vs %v", l, r)
		}
	}
}

func randFront(rng *rand.Rand, k int) []Sol {
	sols := make([]Sol, k)
	for i := range sols {
		sols[i] = Sol{W: rng.Int63n(50), D: rng.Int63n(50)}
	}
	return Filter(sols)
}

func TestMerge(t *testing.T) {
	a := []Pair{{Sol: Sol{1, 9}}, {Sol: Sol{5, 5}}}
	b := []Pair{{Sol: Sol{2, 7}}, {Sol: Sol{5, 6}}}
	got := pairSols(Union(nil, a, b, 0))
	want := []Sol{{1, 9}, {2, 7}, {5, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}

func TestCountCovered(t *testing.T) {
	truth := []Sol{{1, 9}, {5, 5}, {9, 1}}
	found := []Sol{{1, 9}, {6, 5}, {9, 1}}
	if got := CountCovered(found, truth); got != 2 {
		t.Fatalf("CountCovered = %d, want 2", got)
	}
	// A dominating solution also covers.
	found2 := []Sol{{0, 0}}
	if got := CountCovered(found2, truth); got != 3 {
		t.Fatalf("CountCovered dominating = %d, want 3", got)
	}
}

func TestHypervolume(t *testing.T) {
	ref := Sol{10, 10}
	// Single point (5,5): dominated area = 5*5 = 25.
	if hv := Hypervolume([]Sol{{5, 5}}, ref); hv != 25 {
		t.Fatalf("Hypervolume single = %v, want 25", hv)
	}
	// Two points (2,8),(8,2): strips (10-2)*(10-8)=16 and (10-8)*(8-2)=12.
	if hv := Hypervolume([]Sol{{2, 8}, {8, 2}}, ref); hv != 28 {
		t.Fatalf("Hypervolume two = %v, want 28", hv)
	}
	// Points outside ref contribute nothing.
	if hv := Hypervolume([]Sol{{11, 1}, {1, 11}}, ref); hv != 0 {
		t.Fatalf("Hypervolume outside = %v, want 0", hv)
	}
	if hv := Hypervolume(nil, ref); hv != 0 {
		t.Fatalf("Hypervolume empty = %v, want 0", hv)
	}
}

func TestHypervolumeMonotone(t *testing.T) {
	// Adding a point never decreases hypervolume.
	rng := rand.New(rand.NewSource(4))
	ref := Sol{100, 100}
	for trial := 0; trial < 100; trial++ {
		base := randFront(rng, 1+rng.Intn(6))
		hv0 := Hypervolume(base, ref)
		extra := Sol{rng.Int63n(120), rng.Int63n(120)}
		hv1 := Hypervolume(append(append([]Sol(nil), base...), extra), ref)
		if hv1 < hv0 {
			t.Fatalf("hypervolume decreased: %v + %v: %v -> %v", base, extra, hv0, hv1)
		}
	}
}

func TestApproxRatio(t *testing.T) {
	truth := []Sol{{10, 10}}
	if r := ApproxRatio([]Sol{{10, 10}}, truth); r != 1 {
		t.Fatalf("exact cover ratio = %v, want 1", r)
	}
	if r := ApproxRatio([]Sol{{20, 10}}, truth); r != 2 {
		t.Fatalf("ratio = %v, want 2", r)
	}
	if r := ApproxRatio([]Sol{{15, 12}, {30, 10}}, truth); r != 1.5 {
		t.Fatalf("ratio = %v, want 1.5", r)
	}
	if r := ApproxRatio(nil, truth); r != 1e18 {
		t.Fatalf("empty found ratio = %v", r)
	}
	if r := ApproxRatio([]Sol{{1, 1}}, nil); r != 1 {
		t.Fatalf("empty truth ratio = %v", r)
	}
}

func TestIsFrontier(t *testing.T) {
	if !IsFrontier([]Sol{{1, 9}, {2, 8}}) {
		t.Error("valid frontier rejected")
	}
	if IsFrontier([]Sol{{1, 9}, {2, 9}}) {
		t.Error("non-decreasing D accepted")
	}
	if IsFrontier([]Sol{{2, 9}, {1, 8}}) {
		t.Error("decreasing W accepted")
	}
	if !IsFrontier(nil) || !IsFrontier([]Sol{{3, 3}}) {
		t.Error("trivial frontiers rejected")
	}
}

func TestHypervolumeMatchesPixelCount(t *testing.T) {
	// Cross-check the strip formula against brute-force unit-cell counting.
	rng := rand.New(rand.NewSource(5))
	ref := Sol{W: 30, D: 30}
	for trial := 0; trial < 100; trial++ {
		front := randFront(rng, 1+rng.Intn(6))
		want := 0
		for x := int64(0); x < ref.W; x++ {
			for y := int64(0); y < ref.D; y++ {
				// Cell [x,x+1)x[y,y+1) dominated iff some solution has
				// W <= x and D <= y.
				if Contains(front, Sol{W: x, D: y}) {
					want++
				}
			}
		}
		if got := Hypervolume(front, ref); got != float64(want) {
			t.Fatalf("trial %d: Hypervolume = %v, pixel count %d (front %v)",
				trial, got, want, front)
		}
	}
}
