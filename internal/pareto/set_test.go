package pareto

import (
	"math/rand"
	"testing"
)

func TestSetAddBasic(t *testing.T) {
	s := &Set[string]{}
	if !s.Add(Sol{5, 5}, "a") {
		t.Fatal("first add rejected")
	}
	if s.Add(Sol{6, 6}, "dominated") {
		t.Fatal("dominated add accepted")
	}
	if s.Add(Sol{5, 5}, "duplicate") {
		t.Fatal("duplicate add accepted")
	}
	if !s.Add(Sol{3, 7}, "b") || !s.Add(Sol{7, 3}, "c") {
		t.Fatal("incomparable adds rejected")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// (4,4) evicts (5,5) but not (3,7)/(7,3).
	if !s.Add(Sol{4, 4}, "d") {
		t.Fatal("dominating add rejected")
	}
	sols := AppendSols(nil, s.Items())
	want := []Sol{{3, 7}, {4, 4}, {7, 3}}
	if len(sols) != len(want) {
		t.Fatalf("Sols = %v, want %v", sols, want)
	}
	for i := range want {
		if sols[i] != want[i] {
			t.Fatalf("Sols = %v, want %v", sols, want)
		}
	}
}

func TestSetAddEqualW(t *testing.T) {
	s := &Set[int]{}
	s.Add(Sol{5, 5}, 1)
	if s.Add(Sol{5, 6}, 2) {
		t.Fatal("same-W worse-D accepted")
	}
	if !s.Add(Sol{5, 4}, 3) {
		t.Fatal("same-W better-D rejected")
	}
	if s.Len() != 1 || s.Items()[0].Val != 3 {
		t.Fatalf("set = %v", s.Items())
	}
}

func TestSetMatchesFilter(t *testing.T) {
	// Property: incremental Set equals batch Filter on random streams.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		var all []Sol
		s := &Set[int]{}
		for i := 0; i < n; i++ {
			sol := Sol{W: rng.Int63n(20), D: rng.Int63n(20)}
			all = append(all, sol)
			s.Add(sol, i)
		}
		want := Filter(all)
		got := AppendSols(nil, s.Items())
		if len(got) != len(want) {
			t.Fatalf("set %v != filter %v (input %v)", got, want, all)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("set %v != filter %v", got, want)
			}
		}
		if !IsFrontier(got) {
			t.Fatalf("set invariant broken: %v", got)
		}
	}
}

func TestFilterItemsKeepsFirstOnTie(t *testing.T) {
	items := []Item[string]{
		{Sol{5, 5}, "first"},
		{Sol{5, 5}, "second"},
		{Sol{9, 9}, "dominated"},
	}
	out := FilterItems(items)
	if len(out) != 1 || out[0].Val != "first" {
		t.Fatalf("FilterItems = %+v", out)
	}
}

func TestFilterItemsEmpty(t *testing.T) {
	if out := FilterItems[int](nil); out != nil {
		t.Fatalf("FilterItems(nil) = %v", out)
	}
}

func TestCapItems(t *testing.T) {
	items := make([]Item[string], 9)
	for i := range items {
		items[i] = Item[string]{Sol: Sol{W: int64(i), D: int64(9 - i)}}
	}
	out := CapItems(items, 4)
	if len(out) != 4 {
		t.Fatalf("CapItems kept %d of 9 at k=4", len(out))
	}
	if out[0].Sol != items[0].Sol || out[len(out)-1].Sol != items[8].Sol {
		t.Fatalf("CapItems dropped an endpoint: %+v", out)
	}
	// Even spread: indices must be strictly increasing in W.
	for i := 1; i < len(out); i++ {
		if out[i].Sol.W <= out[i-1].Sol.W {
			t.Fatalf("CapItems not increasing at %d: %+v", i, out)
		}
	}
	if got := CapItems(items, 0); len(got) != 9 {
		t.Fatal("k=0 must keep all")
	}
	if got := CapItems(items, 1); len(got) != 1 || got[0].Sol != items[0].Sol {
		t.Fatalf("k=1 must keep exactly the first item, got %+v", got)
	}
	if got := CapItems(items[:3], 7); len(got) != 3 {
		t.Fatal("k above size must keep all")
	}
}
