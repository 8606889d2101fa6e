package ysd

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
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

func TestConvexHullBasics(t *testing.T) {
	items := []pareto.Item[int]{
		{Sol: pareto.Sol{W: 0, D: 10}}, {Sol: pareto.Sol{W: 1, D: 8}},
		{Sol: pareto.Sol{W: 2, D: 7}}, {Sol: pareto.Sol{W: 5, D: 1}},
	}
	hull := ConvexHull(items)
	// (2,7) is not weighted-sum reachable: better than (1,8) needs β>1,
	// better than (5,1) needs β<1/2.
	want := []pareto.Sol{{W: 0, D: 10}, {W: 1, D: 8}, {W: 5, D: 1}}
	if len(hull) != len(want) {
		t.Fatalf("hull = %v", hullSols(hull))
	}
	for i := range want {
		if hull[i].Sol != want[i] {
			t.Fatalf("hull = %v, want %v", hullSols(hull), want)
		}
	}
}

func hullSols[T any](items []pareto.Item[T]) []pareto.Sol {
	out := make([]pareto.Sol, len(items))
	for i, it := range items {
		out[i] = it.Sol
	}
	return out
}

func TestConvexHullMatchesBetaSweep(t *testing.T) {
	// Property: the hull equals the set of argmin(w+βd) over a dense β
	// grid for random frontiers.
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 100; trial++ {
		var raw []pareto.Sol
		for k := 0; k < 2+rng.Intn(10); k++ {
			raw = append(raw, pareto.Sol{W: rng.Int63n(100), D: rng.Int63n(100)})
		}
		front := pareto.Filter(raw)
		items := make([]pareto.Item[int], len(front))
		for i, s := range front {
			items[i] = pareto.Item[int]{Sol: s}
		}
		hull := ConvexHull(items)
		hullSet := map[pareto.Sol]bool{}
		for _, h := range hull {
			hullSet[h.Sol] = true
		}
		// Every β optimum must be on the hull (allowing ties: some optimum
		// for that β is on the hull).
		for _, beta := range []float64{0, 0.01, 0.1, 0.3, 0.5, 1, 2, 5, 50, 1e6} {
			bestV := 1e30
			for _, s := range front {
				if v := float64(s.W) + beta*float64(s.D); v < bestV {
					bestV = v
				}
			}
			ok := false
			for _, h := range hull {
				if v := float64(h.Sol.W) + beta*float64(h.Sol.D); v <= bestV+1e-6 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("trial %d: β=%v optimum not on hull %v (front %v)",
					trial, beta, hullSols(hull), front)
			}
		}
		// Hull vertices must each be optimal for some β in a dense grid.
		for _, h := range hull {
			ok := false
			for beta := 0.0; beta <= 100 && !ok; beta += 0.05 {
				v := float64(h.Sol.W) + beta*float64(h.Sol.D)
				best := true
				for _, s := range front {
					if float64(s.W)+beta*float64(s.D) < v-1e-6 {
						best = false
						break
					}
				}
				ok = best
			}
			if !ok {
				t.Fatalf("trial %d: hull point %v not optimal for any sampled β (front %v)",
					trial, h.Sol, front)
			}
		}
	}
}

func TestSmallSweepSubsetOfFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	sawGap := false
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(4) // 4..7
		net := randNet(rng, n, 80)
		items, err := SmallSweepContext(context.Background(), net)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) > len(truth) {
			t.Fatalf("trial %d: hull larger than frontier", trial)
		}
		for _, it := range items {
			if !pareto.Contains(truth, it.Sol) {
				t.Fatalf("trial %d: hull point %v not on frontier %v", trial, it.Sol, truth)
			}
			if err := it.Val.Validate(net); err != nil {
				t.Fatal(err)
			}
		}
		if len(items) < len(truth) {
			sawGap = true // YSD missed non-convex frontier points
		}
	}
	if !sawGap {
		t.Log("note: no non-convex frontier encountered in sample (unusual but possible)")
	}
}

func TestBuildLargeNet(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	net := randNet(rng, 25, 300)
	for _, beta := range []float64{0, 1, 1e6} {
		tr, err := Build(net, beta)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(net); err != nil {
			t.Fatalf("β=%v: %v", beta, err)
		}
	}
	// Larger β must not increase delay (weighted-sum monotonicity holds
	// per leaf; verify the common global pattern on this instance).
	t0, _ := Build(net, 0)
	tBig, _ := Build(net, 1e6)
	if tBig.MaxDelay() > t0.MaxDelay() {
		t.Fatalf("delay grew with β: %d -> %d", t0.MaxDelay(), tBig.MaxDelay())
	}
}

func TestSweepLargeIsFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	net := randNet(rng, 30, 300)
	items, err := SweepContext(context.Background(), net, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sols []pareto.Sol
	for _, it := range items {
		sols = append(sols, it.Sol)
		if err := it.Val.Validate(net); err != nil {
			t.Fatal(err)
		}
	}
	if !pareto.IsFrontier(sols) {
		t.Fatalf("sweep not canonical: %v", sols)
	}
}

func TestSmallSweepRejectsLargeNet(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	if _, err := SmallSweepContext(context.Background(), randNet(rng, SmallDegree+1, 100)); err == nil {
		t.Fatal("oversized SmallSweep accepted")
	}
}
