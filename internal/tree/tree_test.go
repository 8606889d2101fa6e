package tree

import (
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
)

func testNet() Net {
	return NewNet(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(10, 10))
}

func TestStar(t *testing.T) {
	net := testNet()
	s := Star(net)
	if err := s.Validate(net); err != nil {
		t.Fatalf("Star invalid: %v", err)
	}
	if got := s.Wirelength(); got != 40 {
		t.Errorf("Wirelength = %d, want 40", got)
	}
	if got := s.MaxDelay(); got != 20 {
		t.Errorf("MaxDelay = %d, want 20", got)
	}
}

func TestPathTreeDelays(t *testing.T) {
	// Chain: source -> (10,0) -> (10,10) -> (0,10).
	net := testNet()
	tr := New(net.Source(), 0)
	a := tr.Add(net.Pins[1], 1, tr.Root)
	b := tr.Add(net.Pins[3], 3, a)
	tr.Add(net.Pins[2], 2, b)
	if err := tr.Validate(net); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if got := tr.Wirelength(); got != 30 {
		t.Errorf("Wirelength = %d, want 30", got)
	}
	if got := tr.MaxDelay(); got != 30 {
		t.Errorf("MaxDelay = %d, want 30", got)
	}
	d := NewEvaluator().SinkDelaysInto(tr, 4)
	if d[1] != 10 || d[3] != 20 || d[2] != 30 {
		t.Errorf("SinkDelaysInto = %v", d)
	}
}

func TestSolMatchesComponents(t *testing.T) {
	net := testNet()
	s := Star(net)
	sol := s.Sol()
	if sol.W != s.Wirelength() || sol.D != s.MaxDelay() {
		t.Fatalf("Sol = %v, want (%d,%d)", sol, s.Wirelength(), s.MaxDelay())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	net := testNet()

	// Missing pin.
	tr := New(net.Source(), 0)
	tr.Add(net.Pins[1], 1, tr.Root)
	if err := tr.Validate(net); err == nil {
		t.Error("missing pins not detected")
	}

	// Wrong pin position.
	tr2 := Star(net)
	tr2.Nodes[1].P = geom.Pt(99, 99)
	if err := tr2.Validate(net); err == nil {
		t.Error("wrong pin position not detected")
	}

	// Cycle.
	tr3 := Star(net)
	tr3.Parent[1] = 2
	tr3.Parent[2] = 1
	if err := tr3.Validate(net); err == nil {
		t.Error("cycle not detected")
	}

	// Root not at source.
	tr4 := Star(net)
	tr4.Nodes[0].P = geom.Pt(1, 1)
	if err := tr4.Validate(net); err == nil {
		t.Error("displaced root not detected")
	}

	// Pin index out of range.
	tr5 := Star(net)
	tr5.Nodes[1].Pin = 9
	if err := tr5.Validate(net); err == nil {
		t.Error("out-of-range pin not detected")
	}
}

func TestClone(t *testing.T) {
	net := testNet()
	a := Star(net)
	b := a.Clone()
	b.Add(geom.Pt(5, 5), -1, b.Root)
	b.Nodes[1].P = geom.Pt(7, 7)
	if a.Len() != 4 || a.Nodes[1].P != net.Pins[1] {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestCompactSplicesSteinerChains(t *testing.T) {
	net := NewNet(geom.Pt(0, 0), geom.Pt(10, 0))
	tr := New(net.Source(), 0)
	s1 := tr.Add(geom.Pt(3, 0), -1, tr.Root)
	s2 := tr.Add(geom.Pt(6, 0), -1, s1)
	tr.Add(net.Pins[1], 1, s2)
	leaf := tr.Add(geom.Pt(4, 4), -1, s1)
	_ = leaf
	tr.Compact()
	if err := tr.Validate(net); err != nil {
		t.Fatalf("invalid after Compact: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len after Compact = %d, want 2 (all Steiner removed)", tr.Len())
	}
	if tr.Wirelength() != 10 || tr.MaxDelay() != 10 {
		t.Fatalf("objectives after Compact = %v", tr.Sol())
	}
}

func TestSteinerizeSharesTrunk(t *testing.T) {
	// Source at origin, two sinks straight up then fanning out: the star
	// wastes a shared vertical trunk of length 5.
	net := NewNet(geom.Pt(0, 0), geom.Pt(-3, 5), geom.Pt(3, 5))
	tr := Star(net)
	wBefore := tr.Wirelength()
	dBefore := tr.MaxDelay()
	tr.Steinerize()
	if err := tr.Validate(net); err != nil {
		t.Fatalf("invalid after Steinerize: %v", err)
	}
	if got := tr.Wirelength(); got != wBefore-5 {
		t.Errorf("Wirelength = %d, want %d", got, wBefore-5)
	}
	if got := tr.MaxDelay(); got != dBefore {
		t.Errorf("MaxDelay changed: %d -> %d", dBefore, got)
	}
}

func TestSteinerizePreservesDelaysProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(8)
		pins := make([]geom.Point, n)
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(100), rng.Int63n(100))
		}
		net := Net{Pins: geom.DedupPoints(pins)}
		if net.Degree() < 3 {
			continue
		}
		tr := Star(net)
		ev := NewEvaluator()
		before := slices.Clone(ev.SinkDelaysInto(tr, net.Degree()))
		w0 := tr.Wirelength()
		tr.Steinerize()
		if err := tr.Validate(net); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if tr.Wirelength() > w0 {
			t.Fatalf("trial %d: Steinerize increased wirelength %d -> %d", trial, w0, tr.Wirelength())
		}
		after := ev.SinkDelaysInto(tr, net.Degree())
		for pin, d := range before {
			if after[pin] != d {
				t.Fatalf("trial %d: delay of pin %d changed %d -> %d", trial, pin, d, after[pin])
			}
		}
	}
}

func TestRelocateSteinersReducesWL(t *testing.T) {
	net := NewNet(geom.Pt(0, 0), geom.Pt(10, 10), geom.Pt(10, 12))
	tr := New(net.Source(), 0)
	// A badly placed Steiner node.
	s := tr.Add(geom.Pt(2, 9), -1, tr.Root)
	tr.Add(net.Pins[1], 1, s)
	tr.Add(net.Pins[2], 2, s)
	w0 := tr.Wirelength()
	if !tr.RelocateSteiners() {
		t.Fatal("RelocateSteiners did not move the misplaced node")
	}
	if err := tr.Validate(net); err != nil {
		t.Fatalf("invalid after relocate: %v", err)
	}
	if tr.Wirelength() >= w0 {
		t.Fatalf("wirelength did not decrease: %d -> %d", w0, tr.Wirelength())
	}
}

func TestTopoOrderRootFirst(t *testing.T) {
	net := testNet()
	tr := Star(net)
	order := tr.TopoOrder()
	if len(order) != tr.Len() || order[0] != tr.Root {
		t.Fatalf("TopoOrder = %v", order)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for i, p := range tr.Parent {
		if p >= 0 && pos[p] > pos[i] {
			t.Fatalf("node %d before its parent %d in %v", i, p, order)
		}
	}
}

func TestChildren(t *testing.T) {
	net := testNet()
	tr := Star(net)
	ch := tr.Children()
	if len(ch[tr.Root]) != 3 {
		t.Fatalf("root children = %v", ch[tr.Root])
	}
}
