package ks

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

func TestFrontierSmallIsExact(t *testing.T) {
	// When the whole net fits in a leaf, Pareto-KS is exactly Pareto-DW.
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		net := randNet(rng, n, 80)
		items, err := FrontierContext(context.Background(), net, Options{Leaf: 6})
		if err != nil {
			t.Fatal(err)
		}
		want, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(want) {
			t.Fatalf("trial %d: %v, want %v", trial, sols(items), want)
		}
		for i := range want {
			if items[i].Sol != want[i] {
				t.Fatalf("trial %d: %v, want %v", trial, sols(items), want)
			}
		}
	}
}

func sols(items []pareto.Item[*tree.Tree]) []pareto.Sol {
	out := make([]pareto.Sol, len(items))
	for i, it := range items {
		out[i] = it.Sol
	}
	return out
}

func TestFrontierLargeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, n := range []int{12, 20, 35} {
		net := randNet(rng, n, 300)
		items, err := FrontierContext(context.Background(), net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Fatal("empty frontier")
		}
		var ss []pareto.Sol
		for _, it := range items {
			ss = append(ss, it.Sol)
			if err := it.Val.Validate(net); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if it.Val.Sol() != it.Sol {
				t.Fatalf("n=%d: tree objectives %v != %v", n, it.Val.Sol(), it.Sol)
			}
		}
		if !pareto.IsFrontier(ss) {
			t.Fatalf("n=%d: not canonical: %v", n, ss)
		}
	}
}

func TestFrontierApproximationQuality(t *testing.T) {
	// On nets just above the leaf size the KS result must stay within a
	// small constant of the exact frontier (Theorem 4's bound is loose;
	// empirically the ratio is small).
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		net := randNet(rng, 10, 120)
		items, err := FrontierContext(context.Background(), net, Options{Leaf: 6})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if r := pareto.ApproxRatio(sols(items), truth); r > 2.0 {
			t.Fatalf("trial %d: approximation ratio %.2f too large", trial, r)
		}
	}
}

func TestFrontierMaxSetCap(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	net := randNet(rng, 25, 400)
	items, err := FrontierContext(context.Background(), net, Options{MaxSet: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) > 3 {
		t.Fatalf("cap violated: %d items", len(items))
	}
	for _, it := range items {
		if err := it.Val.Validate(net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrontierEmptyNet(t *testing.T) {
	if _, err := FrontierContext(context.Background(), tree.Net{}, Options{}); err == nil {
		t.Fatal("empty net accepted")
	}
}

func TestCapSpreadsAcrossFrontier(t *testing.T) {
	items := make([]pareto.Item[*tree.Tree], 9)
	for i := range items {
		items[i] = pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: int64(i), D: int64(9 - i)}}
	}
	out := pareto.CapItems(items, 3)
	if len(out) != 3 {
		t.Fatalf("cap kept %d", len(out))
	}
	// Endpoints survive.
	if out[0].Sol != items[0].Sol || out[len(out)-1].Sol != items[8].Sol {
		t.Fatalf("cap dropped endpoints: %v", out)
	}
	// No-op cases.
	if got := pareto.CapItems(items, 0); len(got) != 9 {
		t.Fatal("cap 0 must keep all")
	}
	if got := pareto.CapItems(items[:2], 5); len(got) != 2 {
		t.Fatal("cap above size must keep all")
	}
	// Duplicate-collapsing path: capping 2 of 2 identical-ends.
	two := items[:2]
	if got := pareto.CapItems(two, 2); len(got) != 2 {
		t.Fatalf("cap = %v", got)
	}
}

func TestFrontierWithTableLeaves(t *testing.T) {
	// Remark 1: table-backed leaves give identical results to DP leaves.
	rng := rand.New(rand.NewSource(95))
	for trial := 0; trial < 8; trial++ {
		net := randNet(rng, 14, 200)
		a, err := FrontierContext(context.Background(), net, Options{Leaf: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := FrontierContext(context.Background(), net, Options{Leaf: 5, Table: lut.Default()})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("trial %d: %d vs %d items", trial, len(a), len(b))
		}
		for i := range a {
			if a[i].Sol != b[i].Sol {
				t.Fatalf("trial %d: divergence at %d: %v vs %v", trial, i, a[i].Sol, b[i].Sol)
			}
			if err := b[i].Val.Validate(net); err != nil {
				t.Fatal(err)
			}
		}
	}
}
