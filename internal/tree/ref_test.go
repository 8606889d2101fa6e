package tree

import (
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
)

// refSteinerize is SteinerizeWith as it was before it became incremental:
// every insertion reloads the adjacency and rescans every sibling pair of
// the tree for the first maximum saving.
func refSteinerize(t *Tree, e *Evaluator) {
	for {
		e.Load(t)
		bestGain := int64(0)
		bestV, bestA, bestB := -1, -1, -1
		var bestS geom.Point
		for v := range t.Nodes {
			kids := e.Children(v)
			for i := 0; i < len(kids); i++ {
				for j := i + 1; j < len(kids); j++ {
					a, b := int(kids[i]), int(kids[j])
					s := medianOf3(t.Nodes[v].P, t.Nodes[a].P, t.Nodes[b].P)
					gain := geom.Dist(t.Nodes[v].P, s)
					if gain > bestGain {
						bestGain, bestV, bestA, bestB, bestS = gain, v, a, b, s
					}
				}
			}
		}
		if bestGain == 0 {
			break
		}
		s := t.Add(bestS, -1, bestV)
		t.Parent[bestA] = s
		t.Parent[bestB] = s
	}
	t.CompactWith(e)
}

// refGraft is Graft as it was before it walked the evaluator's order: a
// fresh index map and TopoOrder per call.
func refGraft(t, sub *Tree, at int) int {
	idx := make([]int, sub.Len())
	var rootIdx int
	for _, i := range sub.TopoOrder() {
		nd := sub.Nodes[i]
		if i == sub.Root {
			if nd.P == t.Nodes[at].P {
				idx[i] = at
				if nd.Pin >= 0 && t.Nodes[at].IsSteiner() {
					t.Nodes[at].Pin = nd.Pin
				}
			} else {
				idx[i] = t.Add(nd.P, nd.Pin, at)
			}
			rootIdx = idx[i]
			continue
		}
		idx[i] = t.Add(nd.P, nd.Pin, idx[sub.Parent[i]])
	}
	return rootIdx
}

// treeFromBytes builds a tree from arbitrary bytes. data[0] sets the
// coordinate span (1–50, so savings tie and points coincide); each later
// group of four bytes (parent, x, y, flags) adds a node under an earlier
// node, at (x, y) modulo the span or at its parent's point when flag bit
// 1 is set, as a Steiner point when flag bit 0 is set or else as the next
// pin. Pins therefore sit on Steiner parents, Steiner points sit on pins,
// and nodes share points. Finally the node indices are shuffled, so
// parents need not precede their children and the root need not be node
// 0, as after Compact.
func treeFromBytes(data []byte) *Tree {
	if len(data) == 0 {
		return New(geom.Pt(0, 0), 0)
	}
	span := int64(data[0]%50) + 1
	data = data[1:]
	t := New(geom.Pt(0, 0), 0)
	pins := 1
	for len(data) >= 4 && t.Len() < 64 {
		parent, x, y, flags := int(data[0])%t.Len(), int64(data[1]), int64(data[2]), data[3]
		data = data[4:]
		p := geom.Pt(x%span, y%span)
		if flags&2 != 0 {
			p = t.Nodes[parent].P
		}
		pin := -1
		if flags&1 == 0 {
			pin = pins
			pins++
		}
		t.Add(p, pin, parent)
	}
	// Shuffle: a Fisher–Yates pass driven by an LCG over the tree size.
	n := t.Len()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(n)*2654435761 + uint64(span)
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := &Tree{Nodes: make([]Node, n), Parent: make([]int, n), Root: perm[t.Root]}
	for i := range t.Nodes {
		out.Nodes[perm[i]] = t.Nodes[i]
		if p := t.Parent[i]; p >= 0 {
			out.Parent[perm[i]] = perm[p]
		} else {
			out.Parent[perm[i]] = -1
		}
	}
	return out
}

func sameTree(t *testing.T, what string, got, want *Tree) {
	t.Helper()
	if got.Root != want.Root || !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Parent, want.Parent) {
		t.Fatalf("%s: got nodes %v parents %v root %d, want nodes %v parents %v root %d",
			what, got.Nodes, got.Parent, got.Root, want.Nodes, want.Parent, want.Root)
	}
}

// checkSteinerize compares SteinerizeWith with the reference loop on a
// copy of tr, each through its own long-lived evaluator.
func checkSteinerize(t *testing.T, what string, tr *Tree, ev, refEv *Evaluator) {
	t.Helper()
	got, want := tr.Clone(), tr.Clone()
	got.SteinerizeWith(ev)
	refSteinerize(want, refEv)
	sameTree(t, what, got, want)
}

// TestSteinerizeMatchesReference asserts that the incremental
// Steinerization inserts the same Steiner points in the same order as the
// reference loop — so the compacted trees are equal node for node — on
// 20k random trees with coordinate spans of at most 50, where savings
// tie, points coincide and pins sit on Steiner parents, and on the
// random-topology trees of the evaluator tests.
func TestSteinerizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ev, refEv := NewEvaluator(), NewEvaluator()
	data := make([]byte, 1+4*64)
	for trial := 0; trial < 20000; trial++ {
		buf := data[:1+4*rng.Intn(64)]
		rng.Read(buf)
		checkSteinerize(t, "bytes trial", treeFromBytes(buf), ev, refEv)
	}
	for trial := 0; trial < 500; trial++ {
		net := randomNet(rng, 2+rng.Intn(60), 1+rng.Int63n(5000))
		checkSteinerize(t, "topology trial", randomTopology(rng, net), ev, refEv)
	}
}

// TestGraftMatchesReference asserts that GraftWith appends the same nodes
// in the same order as the reference Graft, merging the roots when they
// coincide, on random host and grafted trees.
func TestGraftMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ev := NewEvaluator()
	data := make([]byte, 1+4*64)
	for trial := 0; trial < 2000; trial++ {
		buf := data[:1+4*rng.Intn(32)]
		rng.Read(buf)
		host := treeFromBytes(buf)
		span := buf[0]
		buf = data[:1+4*rng.Intn(32)]
		rng.Read(buf)
		buf[0] = span // the host's span, so points may coincide
		sub := treeFromBytes(buf)
		at := rng.Intn(host.Len())
		if trial%3 == 0 {
			sub.Nodes[sub.Root].P = host.Nodes[at].P
		}
		got, want := host.Clone(), host.Clone()
		gr, wr := got.GraftWith(sub, at, ev), refGraft(want, sub, at)
		if gr != wr {
			t.Fatalf("trial %d: graft root %d, want %d", trial, gr, wr)
		}
		sameTree(t, "graft", got, want)
	}
}

// FuzzSteinerizeReference compares SteinerizeWith with the reference
// loop on trees built from the fuzz bytes (see treeFromBytes).
func FuzzSteinerizeReference(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 0, 0, 3, 4, 0, 1, 5, 1, 0})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 0, 3})
	f.Add([]byte{49, 0, 9, 9, 0, 0, 40, 3, 0, 0, 3, 40, 0, 1, 0, 0, 2, 1, 20, 20, 1})
	ev, refEv := NewEvaluator(), NewEvaluator()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSteinerize(t, "fuzz", treeFromBytes(data), ev, refEv)
	})
}
