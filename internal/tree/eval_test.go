package tree

import (
	"math/rand"
	"testing"

	"patlabor/internal/geom"
)

// randomTopology builds a tree over net with each sink attached to a
// uniformly random earlier node — arbitrary branching, unlike Star.
func randomTopology(rng *rand.Rand, net Net) *Tree {
	t := New(net.Pins[0], 0)
	for i := 1; i < net.Degree(); i++ {
		t.Add(net.Pins[i], i, rng.Intn(t.Len()))
	}
	return t
}

func randomNet(rng *rand.Rand, n int, span int64) Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return Net{Pins: pins}
}

// TestEvaluatorDifferential drives one shared Evaluator across trees of
// varying size and shape and checks every scratch computation against the
// allocating Tree methods it replaces.
func TestEvaluatorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ev := NewEvaluator()
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(24)
		net := randomNet(rng, n, 3000)
		tr := randomTopology(rng, net)
		switch trial % 3 {
		case 1:
			tr.Steinerize()
		case 2:
			tr.Steinerize()
			tr.RelocateSteiners()
		}

		ev.Load(tr)

		// Adjacency must agree with the allocating Children.
		want := tr.Children()
		for v := 0; v < tr.Len(); v++ {
			got := ev.Children(v)
			if len(got) != len(want[v]) {
				t.Fatalf("trial %d node %d: %d children, want %d", trial, v, len(got), len(want[v]))
			}
			for k, c := range got {
				if int(c) != want[v][k] {
					t.Fatalf("trial %d node %d child %d: %d, want %d", trial, v, k, c, want[v][k])
				}
			}
		}

		// Order: every node exactly once, root first, parents before
		// children (the property all traversals rely on).
		order := ev.Order()
		if len(order) != tr.Len() {
			t.Fatalf("trial %d: order has %d nodes, want %d", trial, len(order), tr.Len())
		}
		pos := make([]int, tr.Len())
		for k, v := range order {
			pos[v] = k
		}
		if order[0] != int32(tr.Root) {
			t.Fatalf("trial %d: order starts at %d, not the root", trial, order[0])
		}
		for _, v := range order[1:] {
			if pos[tr.Parent[v]] >= pos[v] {
				t.Fatalf("trial %d: node %d precedes its parent", trial, v)
			}
		}

		pl := ev.PathLengthsInto(tr)
		for i, d := range tr.PathLengths() {
			if pl[i] != d {
				t.Fatalf("trial %d: path length of node %d = %d, want %d", trial, i, pl[i], d)
			}
		}

		// Reference: the max path length over each pin's nodes (absent
		// pins read 0).
		sd := ev.SinkDelaysInto(tr, net.Degree())
		ref := tr.PathLengths()
		byPin := make([]int64, net.Degree())
		for i, nd := range tr.Nodes {
			if nd.Pin >= 0 && ref[i] > byPin[nd.Pin] {
				byPin[nd.Pin] = ref[i]
			}
		}
		for pin := range byPin {
			if sd[pin] != byPin[pin] {
				t.Fatalf("trial %d: delay of pin %d = %d, want %d", trial, pin, sd[pin], byPin[pin])
			}
		}

		if got, want := ev.Sol(tr), tr.Sol(); got != want {
			t.Fatalf("trial %d: Sol %v, want %v", trial, got, want)
		}
	}
}

// TestEvaluatorDuplicatePins pins down SinkDelaysInto's max-over-
// duplicates semantics: when several nodes realise one pin, the reported
// delay is the largest.
func TestEvaluatorDuplicatePins(t *testing.T) {
	tr := New(geom.Pt(0, 0), 0)
	a := tr.Add(geom.Pt(10, 0), 1, tr.Root)
	tr.Add(geom.Pt(10, 20), 1, a) // pin 1 again, deeper
	tr.Add(geom.Pt(0, 5), 2, tr.Root)

	ev := NewEvaluator()
	sd := ev.SinkDelaysInto(tr, 4)
	if sd[1] != 30 {
		t.Fatalf("duplicate pin delay = %d, want the max 30", sd[1])
	}
	if sd[2] != 5 {
		t.Fatalf("pin 2 delay = %d, want 5", sd[2])
	}
	if sd[3] != 0 {
		t.Fatalf("absent pin delay = %d, want 0", sd[3])
	}
}

// TestEvaluatorSteadyStateAllocs is the point of the type: once warm, a
// Load-and-evaluate cycle performs no allocation at all.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := randomNet(rng, 40, 5000)
	tr := randomTopology(rng, net)
	tr.Steinerize()

	ev := NewEvaluator()
	ev.Load(tr) // warm the scratch to this size
	allocs := testing.AllocsPerRun(50, func() {
		ev.Load(tr)
		_ = ev.PathLengthsInto(tr)
		_ = ev.SinkDelaysInto(tr, net.Degree())
		_ = ev.Sol(tr)
	})
	if allocs != 0 {
		t.Fatalf("steady-state evaluator cycle allocates %.1f times", allocs)
	}
}
