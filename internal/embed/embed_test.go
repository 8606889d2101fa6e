package embed

import (
	"math/rand"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

func TestEdgeStraight(t *testing.T) {
	segs := Edge(geom.Pt(0, 0), geom.Pt(5, 0), LowerL)
	if len(segs) != 1 || !segs[0].Horizontal || segs[0].Len() != 5 {
		t.Fatalf("segs = %+v", segs)
	}
	segs = Edge(geom.Pt(2, 7), geom.Pt(2, 3), UpperL)
	if len(segs) != 1 || segs[0].Horizontal || segs[0].Len() != 4 {
		t.Fatalf("segs = %+v", segs)
	}
	if segs[0].A.Y > segs[0].B.Y {
		t.Fatal("segment endpoints not normalised")
	}
	if out := Edge(geom.Pt(1, 1), geom.Pt(1, 1), LowerL); out != nil {
		t.Fatalf("zero edge = %+v", out)
	}
}

func TestEdgeBends(t *testing.T) {
	// LowerL from (0,0) to (4,3): horizontal at y=0 then vertical at x=4.
	segs := Edge(geom.Pt(0, 0), geom.Pt(4, 3), LowerL)
	if len(segs) != 2 {
		t.Fatalf("segs = %+v", segs)
	}
	if !segs[0].Horizontal || segs[0].A != geom.Pt(0, 0) || segs[0].B != geom.Pt(4, 0) {
		t.Fatalf("first segment = %+v", segs[0])
	}
	if segs[1].Horizontal || segs[1].A != geom.Pt(4, 0) || segs[1].B != geom.Pt(4, 3) {
		t.Fatalf("second segment = %+v", segs[1])
	}
	// UpperL bends the other way.
	segs = Edge(geom.Pt(0, 0), geom.Pt(4, 3), UpperL)
	if segs[0].Horizontal || segs[1].A != geom.Pt(0, 3) {
		t.Fatalf("UpperL = %+v", segs)
	}
}

func TestMetalLengthDeduplicatesOverlap(t *testing.T) {
	// Two horizontal wires overlapping on [2,5] of y=0: union is [0,5]+[2,8] = 8.
	segs := []Segment{
		{A: geom.Pt(0, 0), B: geom.Pt(5, 0), Horizontal: true},
		{A: geom.Pt(2, 0), B: geom.Pt(8, 0), Horizontal: true},
	}
	if got := MetalLength(segs); got != 8 {
		t.Fatalf("MetalLength = %d, want 8", got)
	}
	// Different tracks do not merge.
	segs[1].A = geom.Pt(2, 1)
	segs[1].B = geom.Pt(8, 1)
	if got := MetalLength(segs); got != 11 {
		t.Fatalf("MetalLength = %d, want 11", got)
	}
	// Crossing perpendicular wires are independent.
	cross := []Segment{
		{A: geom.Pt(0, 1), B: geom.Pt(4, 1), Horizontal: true},
		{A: geom.Pt(2, 0), B: geom.Pt(2, 3), Horizontal: false},
	}
	if got := MetalLength(cross); got != 7 {
		t.Fatalf("MetalLength cross = %d, want 7", got)
	}
}

func TestUnionLengthDisjointAndNested(t *testing.T) {
	if got := unionLength([][2]int64{{0, 2}, {5, 9}}); got != 6 {
		t.Fatalf("disjoint = %d", got)
	}
	if got := unionLength([][2]int64{{0, 10}, {2, 5}}); got != 10 {
		t.Fatalf("nested = %d", got)
	}
}

func TestStarOverlapDetected(t *testing.T) {
	// Two sinks in the same direction: the star double-counts the trunk.
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(6, 0))
	star := tree.Star(net)
	if star.Wirelength() != 16 {
		t.Fatalf("wirelength = %d", star.Wirelength())
	}
	if m := TreeMetal(star, LowerL); m != 10 {
		t.Fatalf("metal = %d, want 10 (shared trunk counted once)", m)
	}
	if o := overlap(star); o != 6 {
		t.Fatalf("overlap = %d, want 6", o)
	}
}

func TestMetalNeverExceedsWirelength(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(10)
		pins := make([]geom.Point, n)
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(200), rng.Int63n(200))
		}
		net := tree.Net{Pins: pins}
		for _, tr := range []*tree.Tree{tree.Star(net), rsmt.MST(net)} {
			w := tr.Wirelength()
			for _, c := range []Corner{LowerL, UpperL} {
				if m := TreeMetal(tr, c); m > w {
					t.Fatalf("trial %d: metal %d exceeds wirelength %d", trial, m, w)
				}
			}
			if overlap(tr) < 0 {
				t.Fatalf("trial %d: negative overlap", trial)
			}
		}
	}
}

func TestSteinerizedTreesHaveLittleOverlap(t *testing.T) {
	// Steinerisation extracts shared trunks: overlap must shrink to (near)
	// zero relative to the star's.
	rng := rand.New(rand.NewSource(4))
	reduced := 0
	trials := 40
	for trial := 0; trial < trials; trial++ {
		pins := make([]geom.Point, 6)
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(100), rng.Int63n(100))
		}
		net := tree.Net{Pins: geom.DedupPoints(pins)}
		if net.Degree() < 3 {
			continue
		}
		star := tree.Star(net)
		before := overlap(star)
		st := star.Clone()
		st.Steinerize()
		after := overlap(st)
		if after > before {
			t.Fatalf("trial %d: Steinerize increased overlap %d -> %d", trial, before, after)
		}
		if after < before {
			reduced++
		}
	}
	if reduced == 0 {
		t.Fatal("Steinerize never reduced overlap across trials")
	}
}

// overlap returns the metal the tree model double-counts: Wirelength
// minus the best metal length over both uniform corner rules. Zero means
// the tree's edges are disjoint as drawn.
func overlap(t *tree.Tree) int64 {
	return t.Wirelength() - max(TreeMetal(t, LowerL), TreeMetal(t, UpperL))
}
