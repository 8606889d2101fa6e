package rsma

import (
	"math/rand"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(2*span)-span, rng.Int63n(2*span)-span)
	}
	return tree.Net{Pins: pins}
}

func TestTreeIsShortestPath(t *testing.T) {
	// Property: every sink's path length equals its L1 distance from the
	// source — the defining invariant of an arborescence.
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(20)
		net := randNet(rng, n, 200)
		a := Tree(net)
		if err := a.Validate(net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		delays := tree.NewEvaluator().SinkDelaysInto(a, n)
		for pin := 1; pin < n; pin++ {
			want := geom.Dist(net.Source(), net.Pins[pin])
			if delays[pin] != want {
				t.Fatalf("trial %d: pin %d delay %d, want shortest-path %d (net %v)",
					trial, pin, delays[pin], want, net.Pins)
			}
		}
		if a.MaxDelay() != MinDelay(net) {
			t.Fatalf("trial %d: MaxDelay %d != MinDelay %d", trial, a.MaxDelay(), MinDelay(net))
		}
	}
}

func TestTreeWirelengthBounds(t *testing.T) {
	// Wirelength is at least the star's per-quadrant lower bound (HPWL of
	// all pins) and at most the star's wirelength (the heuristic merges,
	// never duplicates full paths).
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(15)
		net := randNet(rng, n, 150)
		a := Tree(net)
		star := tree.Star(net).Wirelength()
		if w := a.Wirelength(); w > star {
			t.Fatalf("trial %d: arborescence %d longer than star %d", trial, w, star)
		}
		if w := a.Wirelength(); w < geom.HPWL(net.Pins...) {
			t.Fatalf("trial %d: wirelength %d below HPWL", trial, a.Wirelength())
		}
	}
}

func TestTreeSharesTrunk(t *testing.T) {
	// Two sinks in the same direction share the trunk: the chain through
	// (10,1) costs 11+2 = 13 (the star would cost 24).
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(10, 1), geom.Pt(10, 3))
	a := Tree(net)
	if err := a.Validate(net); err != nil {
		t.Fatal(err)
	}
	if w := a.Wirelength(); w != 13 {
		t.Fatalf("wirelength = %d, want 13", w)
	}
	if d := a.MaxDelay(); d != 13 {
		t.Fatalf("delay = %d, want 13", d)
	}
}

func TestTreeAllQuadrants(t *testing.T) {
	net := tree.NewNet(geom.Pt(0, 0),
		geom.Pt(5, 5), geom.Pt(-5, 5), geom.Pt(-5, -5), geom.Pt(5, -5))
	a := Tree(net)
	if err := a.Validate(net); err != nil {
		t.Fatal(err)
	}
	if a.MaxDelay() != 10 {
		t.Fatalf("delay = %d, want 10", a.MaxDelay())
	}
}

func TestSinkAtSource(t *testing.T) {
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(4, 4))
	a := Tree(net)
	if err := a.Validate(net); err != nil {
		t.Fatal(err)
	}
	if a.MaxDelay() != 8 {
		t.Fatalf("delay = %d, want 8", a.MaxDelay())
	}
}

func TestDegenerate(t *testing.T) {
	single := tree.Net{Pins: []geom.Point{geom.Pt(1, 2)}}
	a := Tree(single)
	if a.Len() != 1 || a.Wirelength() != 0 {
		t.Fatal("degree-1 arborescence wrong")
	}
	if MinDelay(single) != 0 {
		t.Fatal("MinDelay of degree-1 net must be 0")
	}
}
