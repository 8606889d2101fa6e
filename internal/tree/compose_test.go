package tree

import (
	"math/rand"
	"testing"

	"patlabor/internal/geom"
)

func TestRelabelPins(t *testing.T) {
	sub := NewNet(geom.Pt(0, 0), geom.Pt(5, 5))
	tr := Star(sub)
	if err := tr.RelabelPins([]int{3, 7}); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes[0].Pin != 3 || tr.Nodes[1].Pin != 7 {
		t.Fatalf("pins = %d,%d", tr.Nodes[0].Pin, tr.Nodes[1].Pin)
	}
	if err := tr.RelabelPins([]int{0}); err == nil {
		t.Fatal("out-of-range relabel accepted")
	}
}

func TestMergeAtRoot(t *testing.T) {
	netA := NewNet(geom.Pt(0, 0), geom.Pt(5, 0))
	netB := NewNet(geom.Pt(0, 0), geom.Pt(0, 7))
	a := Star(netA)
	b := Star(netB)
	if err := b.RelabelPins([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	m, err := MergeAtRoot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	full := NewNet(geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(0, 7))
	if err := m.Validate(full); err != nil {
		t.Fatal(err)
	}
	if m.Wirelength() != 12 || m.MaxDelay() != 7 {
		t.Fatalf("merged sol = %v", m.Sol())
	}
	// Mismatched roots rejected.
	c := Star(NewNet(geom.Pt(1, 1), geom.Pt(2, 2)))
	if _, err := MergeAtRoot(a, c); err == nil {
		t.Fatal("mismatched roots accepted")
	}
}

func TestGraftAtDifferentPosition(t *testing.T) {
	net := NewNet(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 5))
	// Build a subtree rooted at pin 1's position carrying pin 2.
	sub2 := New(net.Pins[1], 1)
	sub2.Add(net.Pins[2], 2, 0)
	// Graft onto the node at (10,0): positions match, so they merge.
	base2 := New(net.Source(), 0)
	n1 := base2.Add(net.Pins[1], 1, base2.Root)
	base2.Graft(sub2, n1)
	if err := base2.Validate(net); err != nil {
		t.Fatal(err)
	}
	if base2.Wirelength() != 15 {
		t.Fatalf("wirelength = %d, want 15", base2.Wirelength())
	}
}

func TestRemovePin(t *testing.T) {
	net := NewNet(geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0))
	// Chain 0 -> 1 -> 2: removing pin 1 must keep pin 2 connected.
	tr := New(net.Source(), 0)
	a := tr.Add(net.Pins[1], 1, tr.Root)
	tr.Add(net.Pins[2], 2, a)
	if err := tr.RemovePin(1); err != nil {
		t.Fatal(err)
	}
	// Pin 1 no longer present; pin 2 still reachable.
	for _, nd := range tr.Nodes {
		if nd.Pin == 1 {
			t.Fatal("pin 1 still present")
		}
	}
	d := NewEvaluator().SinkDelaysInto(tr, 3)
	if d[2] != 20 {
		t.Fatalf("pin 2 delay = %d", d[2])
	}
	if err := tr.RemovePin(0); err == nil {
		t.Fatal("removing the source accepted")
	}
	if err := tr.RemovePin(9); err == nil {
		t.Fatal("removing an absent pin accepted")
	}
}

func TestCompactPreservesValidityProperty(t *testing.T) {
	// Random valid trees with extra Steiner noise stay valid through
	// Compact, and objectives never get worse.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(6)
		pins := make([]geom.Point, n)
		for i := range pins {
			pins[i] = geom.Pt(rng.Int63n(60), rng.Int63n(60))
		}
		net := Net{Pins: geom.DedupPoints(pins)}
		tr := Star(net)
		// Insert random Steiner chains above random nodes.
		for k := 0; k < 4; k++ {
			v := rng.Intn(tr.Len())
			if v == tr.Root {
				continue
			}
			s := tr.Add(geom.Pt(rng.Int63n(60), rng.Int63n(60)), -1, tr.Parent[v])
			tr.Parent[v] = s
		}
		w0, d0 := tr.Wirelength(), tr.MaxDelay()
		tr.Compact()
		if err := tr.Validate(net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.Wirelength() > w0 || tr.MaxDelay() > d0 {
			t.Fatalf("trial %d: Compact worsened objectives", trial)
		}
	}
}

func TestGraftThenRemovePinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		base := NewNet(geom.Pt(0, 0), geom.Pt(rng.Int63n(50)+1, rng.Int63n(50)+1))
		tr := Star(base)
		// Graft a subtree carrying pin 2 at the root.
		p2 := geom.Pt(rng.Int63n(50), rng.Int63n(50)+60)
		sub := New(geom.Pt(0, 0), 0)
		sub.Add(p2, 2, sub.Root)
		tr.Graft(sub, tr.Root)
		full := Net{Pins: append(append([]geom.Point(nil), base.Pins...), p2)}
		if err := tr.Validate(full); err != nil {
			t.Fatalf("trial %d after graft: %v", trial, err)
		}
		if err := tr.RemovePin(2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(base); err != nil {
			t.Fatalf("trial %d after remove: %v", trial, err)
		}
	}
}
