package dw

import (
	"context"
	"math"
	"math/rand"
	"testing"

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

func TestFrontierDegree1(t *testing.T) {
	net := tree.Net{Pins: []geom.Point{geom.Pt(3, 4)}}
	items, err := FrontierContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Sol != (pareto.Sol{W: 0, D: 0}) {
		t.Fatalf("degree-1 frontier = %v", items)
	}
	if err := items[0].Val.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierDegree2(t *testing.T) {
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(5, 7))
	items, err := FrontierContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Sol != (pareto.Sol{W: 12, D: 12}) {
		t.Fatalf("degree-2 frontier = %v", items)
	}
	if err := items[0].Val.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierCollinear(t *testing.T) {
	// Three collinear pins: a single solution (the straight line).
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0))
	sols, err := FrontierSolsContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0] != (pareto.Sol{W: 10, D: 10}) {
		t.Fatalf("collinear frontier = %v", sols)
	}
}

func TestFrontierLShape(t *testing.T) {
	// Source (0,0), sinks (10,0) and (10,10): the path through (10,0) is
	// simultaneously optimal in both objectives.
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10))
	sols, err := FrontierSolsContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0] != (pareto.Sol{W: 20, D: 20}) {
		t.Fatalf("L-shape frontier = %v", sols)
	}
}

func TestFrontierKnownTradeoff(t *testing.T) {
	// Source in the middle, two sinks on opposite sides, one far sink
	// reachable via a shared trunk or directly: constructed so the RSMT
	// and the SPT differ.
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(10, 1), geom.Pt(10, -1), geom.Pt(20, 0))
	sols, err := FrontierSolsContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) < 1 {
		t.Fatal("empty frontier")
	}
	truth := bruteFrontier(net)
	assertSameFrontier(t, sols, truth)
}

func assertSameFrontier(t *testing.T, got, want []pareto.Sol) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("frontier size %d, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier mismatch at %d\n got: %v\nwant: %v", i, got, want)
		}
	}
}

func TestFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(2) // 3 or 4 pins
		net := randNet(rng, n, 12)
		got, err := FrontierSolsContext(context.Background(), net, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := bruteFrontier(net)
		if len(got) != len(want) {
			t.Fatalf("trial %d (net %v): got %v, want %v", trial, net.Pins, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (net %v): got %v, want %v", trial, net.Pins, got, want)
			}
		}
	}
}

func TestFrontierTreesMatchSols(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5) // 2..6 pins
		net := randNet(rng, n, 30)
		items, err := FrontierContext(context.Background(), net, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Fatalf("trial %d: empty frontier", trial)
		}
		for _, it := range items {
			if err := it.Val.Validate(net); err != nil {
				t.Fatalf("trial %d: invalid tree: %v", trial, err)
			}
			if got := it.Val.Sol(); got != it.Sol {
				t.Fatalf("trial %d: tree objectives %v != reported %v (net %v)",
					trial, got, it.Sol, net.Pins)
			}
		}
		if !pareto.IsFrontier(sols(items)) {
			t.Fatalf("trial %d: result is not a canonical frontier", trial)
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

func TestPruningsDoNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	variants := []Options{
		{},
		{PruneCorners: true},
		{ProjectOutside: true},
		{BoundarySplits: true},
		{PruneCorners: true, ProjectOutside: true},
		{PruneCorners: true, BoundarySplits: true},
		{ProjectOutside: true, BoundarySplits: true},
		DefaultOptions(),
	}
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(4) // 3..6 pins
		net := randNet(rng, n, 40)
		ref, err := FrontierSolsContext(context.Background(), net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range variants {
			got, err := FrontierSolsContext(context.Background(), net, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ref) {
				t.Fatalf("trial %d opts %+v: %v, want %v (net %v)", trial, opt, got, ref, net.Pins)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("trial %d opts %+v: %v, want %v (net %v)", trial, opt, got, ref, net.Pins)
				}
			}
		}
	}
}

func TestFrontierDuplicatePins(t *testing.T) {
	// Two sinks at the same point, plus a sink on the source.
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(0, 0))
	items, err := FrontierContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Sol != (pareto.Sol{W: 10, D: 10}) {
		t.Fatalf("duplicate-pin frontier = %v", sols(items))
	}
	if err := items[0].Val.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierEndpointsAreOptima(t *testing.T) {
	// The frontier's first point minimises W (the RSMT wirelength) and its
	// last point minimises D (the shortest-path delay = max L1 distance).
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		net := randNet(rng, n, 50)
		sols, err := FrontierSolsContext(context.Background(), net, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		last := sols[len(sols)-1]
		var spt int64
		for _, p := range net.Sinks() {
			if d := geom.Dist(net.Source(), p); d > spt {
				spt = d
			}
		}
		if last.D != spt {
			t.Fatalf("trial %d: min delay %d, want SPT bound %d (net %v)",
				trial, last.D, spt, net.Pins)
		}
		// Min wirelength must not exceed the star's and must be at least
		// the HPWL lower bound... HPWL is a lower bound for RSMT.
		star := tree.Star(net).Wirelength()
		if sols[0].W > star {
			t.Fatalf("trial %d: min wirelength %d exceeds star %d", trial, sols[0].W, star)
		}
		if sols[0].W < geom.HPWL(net.Pins...) {
			t.Fatalf("trial %d: min wirelength %d below HPWL bound %d", trial, sols[0].W, geom.HPWL(net.Pins...))
		}
	}
}

func TestFrontierDegreeTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := randNet(rng, MaxExactDegree+1, 100)
	if _, err := FrontierContext(context.Background(), net, DefaultOptions()); err == nil {
		t.Fatal("expected an error for oversized degree")
	}
}

func TestFrontierEmptyNet(t *testing.T) {
	if _, err := FrontierContext(context.Background(), tree.Net{}, DefaultOptions()); err == nil {
		t.Fatal("expected an error for an empty net")
	}
}

func TestFrontierDegree7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 5; trial++ {
		net := randNet(rng, 7, 100)
		items, err := FrontierContext(context.Background(), net, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			if err := it.Val.Validate(net); err != nil {
				t.Fatal(err)
			}
			if it.Val.Sol() != it.Sol {
				t.Fatalf("objective mismatch: %v vs %v", it.Val.Sol(), it.Sol)
			}
		}
	}
}

// boundNet returns a degree-6 net (five distinct sinks) whose pin
// half-perimeter is exactly the int64-safe bound MaxInt64/(4·5).
func boundNet() tree.Net {
	hp := int64(math.MaxInt64) / 20
	a, b := hp/2, hp-hp/2
	return tree.NewNet(geom.Pt(0, 0), geom.Pt(a, 0), geom.Pt(0, b), geom.Pt(a, b), geom.Pt(a/2, b/3), geom.Pt(a/3, b/2))
}

func TestFrontierRejectsOverflow(t *testing.T) {
	const big = int64(1) << 62
	corners := tree.NewNet(geom.Pt(-big, -big), geom.Pt(big, -big), geom.Pt(-big, big), geom.Pt(big, big))
	rng := rand.New(rand.NewSource(62))
	wide := randNet(rng, 6, big)
	over := boundNet()
	over.Pins[1].X++ // one past the bound
	for _, net := range []tree.Net{corners, wide, over} {
		if sols, err := FrontierSolsContext(context.Background(), net, DefaultOptions()); err == nil {
			t.Fatalf("net %v: frontier %v, want an overflow error", net.Pins, sols)
		}
	}
}

func TestFrontierAtRangeBound(t *testing.T) {
	net := boundNet()
	items, err := FrontierContext(context.Background(), net, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Sol.W < 0 || it.Sol.D < 0 {
			t.Fatalf("negative objectives %v", it.Sol)
		}
		if err := it.Val.Validate(net); err != nil {
			t.Fatal(err)
		}
		if got := it.Val.Sol(); got != it.Sol {
			t.Fatalf("tree objectives %v != reported %v", got, it.Sol)
		}
	}
}
