package tree

import "patlabor/internal/geom"

// Compact removes useless Steiner nodes in place: Steiner leaves are
// dropped and Steiner nodes with exactly one child are spliced out
// (their child is reattached to their parent). Both operations never
// increase wirelength or any source-sink path length. Node indices are
// renumbered; the root keeps realising the source pin.
func (t *Tree) Compact() {
	e := GetEvaluator()
	t.CompactWith(e)
	PutEvaluator(e)
}

// CompactWith is Compact evaluating through e's scratch adjacency, for
// callers that run many passes with one evaluator.
func (t *Tree) CompactWith(e *Evaluator) {
	for {
		e.Load(t)
		victim := -1
		for i, nd := range t.Nodes {
			if i == t.Root {
				continue
			}
			if nd.IsSteiner() && len(e.Children(i)) <= 1 {
				victim = i
				break
			}
			// A pin co-located with a Steiner parent absorbs the parent's
			// role: promote the pin into the parent node and drop the
			// child (its own children, if any, are re-homed below).
			p := t.Parent[i]
			if !nd.IsSteiner() && t.Nodes[p].IsSteiner() && t.Nodes[p].P == nd.P {
				t.Nodes[p].Pin = nd.Pin
				t.Nodes[i].Pin = -1
				if len(e.Children(i)) <= 1 {
					victim = i
					break
				}
			}
		}
		if victim < 0 {
			return
		}
		// Splice: reattach the (at most one) child to victim's parent.
		for _, c := range e.Children(victim) {
			t.Parent[c] = t.Parent[victim]
		}
		t.remove(victim)
	}
}

// remove deletes node i, renumbering indices. The caller must have
// re-homed i's children first.
func (t *Tree) remove(i int) {
	last := len(t.Nodes) - 1
	// Move the last node into slot i.
	if i != last {
		t.Nodes[i] = t.Nodes[last]
		t.Parent[i] = t.Parent[last]
		for j := range t.Parent {
			if t.Parent[j] == last {
				t.Parent[j] = i
			}
		}
		if t.Root == last {
			t.Root = i
		}
	}
	t.Nodes = t.Nodes[:last]
	t.Parent = t.Parent[:last]
}

// Steinerize reduces wirelength in place by inserting Steiner points:
// for a node v with children a and b, the componentwise median s of
// (v, a, b) lies inside the pairwise bounding boxes, so replacing edges
// (v,a),(v,b) by (v,s),(s,a),(s,b) saves exactly dist(v,s) wirelength
// while leaving every source-sink path length unchanged. The pass greedily
// applies the best saving until none remains, then compacts.
func (t *Tree) Steinerize() {
	e := GetEvaluator()
	t.SteinerizeWith(e)
	PutEvaluator(e)
}

// steinerNode is one node's state in SteinerizeWith: its children are
// e.child[lo:hi], and (a, b) is its best sibling pair with saving gain
// (0 when no pair saves anything).
type steinerNode struct {
	lo, hi int32
	a, b   int32
	gain   int64
}

// SteinerizeWith is Steinerize evaluating through e's scratch.
//
// Each insertion takes the greatest saving over all sibling pairs of the
// tree; ties go to the lowest parent index, then to the first pair
// (i < j) in the parent's child list, which is in index order. The tree
// is loaded once: e keeps every node's child list and best pair, and a
// heap of the nodes with a saving, ordered by (gain descending, node
// ascending), yields the next insertion. Inserting s under v moves v's
// children a and b under s, so only v's list changes — it loses a and b
// and gains s at its end, s having the largest index — and only v, the
// heap's top, and s are rescanned.
func (t *Tree) SteinerizeWith(e *Evaluator) {
	e.Load(t)
	n := len(t.Nodes)
	e.st = e.st[:0]
	e.heap = e.heap[:0]
	for v := 0; v < n; v++ {
		e.st = append(e.st, steinerNode{lo: e.start[v], hi: e.start[v+1]})
		if e.scanPairs(t, v) > 0 {
			e.heap = append(e.heap, int32(v))
		}
	}
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	for len(e.heap) > 0 {
		v := int(e.heap[0])
		a, b := e.st[v].a, e.st[v].b
		s := t.Add(medianOf3(t.Nodes[v].P, t.Nodes[a].P, t.Nodes[b].P), -1, v)
		t.Parent[a] = s
		t.Parent[b] = s
		// v's list keeps its order without a and b; s goes last.
		lo, hi := e.st[v].lo, e.st[v].hi
		k := lo
		for _, c := range e.child[lo:hi] {
			if c != a && c != b {
				e.child[k] = c
				k++
			}
		}
		e.child[k] = int32(s)
		e.st[v].hi = k + 1
		end := int32(len(e.child))
		e.child = append(e.child, a, b)
		e.st = append(e.st, steinerNode{lo: end, hi: end + 2})
		// A node leaves the heap for good once nothing saves: only v and
		// s ever change again.
		if e.scanPairs(t, v) == 0 {
			last := len(e.heap) - 1
			e.heap[0] = e.heap[last]
			e.heap = e.heap[:last]
		}
		e.siftDown(0)
		if e.scanPairs(t, s) > 0 {
			e.heap = append(e.heap, int32(s))
			e.siftUp(len(e.heap) - 1)
		}
	}
	t.CompactWith(e)
}

// scanPairs sets v's best sibling pair and its gain: the first maximum
// saving in the pair order of SteinerizeWith, 0 when no pair saves
// anything. It returns the gain.
func (e *Evaluator) scanPairs(t *Tree, v int) int64 {
	nd := &e.st[v]
	kids := e.child[nd.lo:nd.hi]
	p := t.Nodes[v].P
	nd.gain = 0
	for i, a := range kids {
		pa := t.Nodes[a].P
		for _, b := range kids[i+1:] {
			if g := geom.Dist(p, medianOf3(p, pa, t.Nodes[b].P)); g > nd.gain {
				nd.gain, nd.a, nd.b = g, a, b
			}
		}
	}
	return nd.gain
}

// before orders the Steinerization heap: greater gain first, then the
// lower node index.
func (e *Evaluator) before(x, y int32) bool {
	gx, gy := e.st[x].gain, e.st[y].gain
	return gx > gy || gx == gy && x < y
}

func (e *Evaluator) siftUp(i int) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (e *Evaluator) siftDown(i int) {
	h := e.heap
	for {
		m := i
		if l := 2*i + 1; l < len(h) && e.before(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && e.before(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func medianOf3(a, b, c geom.Point) geom.Point {
	return geom.Point{X: med3(a.X, b.X, c.X), Y: med3(a.Y, b.Y, c.Y)}
}

func med3(a, b, c int64) int64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// RelocateSteiners moves each Steiner node to the componentwise median of
// its parent and children when that strictly reduces wirelength. Unlike
// Steinerize this may lengthen individual source-sink paths, so callers
// should treat the result as a candidate and Pareto-filter it against the
// original. It reports whether any node moved.
func (t *Tree) RelocateSteiners() bool {
	e := GetEvaluator()
	moved := t.RelocateSteinersWith(e)
	PutEvaluator(e)
	return moved
}

// RelocateSteinersWith is RelocateSteiners evaluating through e's
// scratch adjacency. Relocation only moves coordinates, never edges, so
// the adjacency is loaded once for all passes.
func (t *Tree) RelocateSteinersWith(e *Evaluator) bool {
	moved := false
	e.Load(t)
	for pass := 0; pass < len(t.Nodes); pass++ {
		changed := false
		for i, nd := range t.Nodes {
			if !nd.IsSteiner() || i == t.Root {
				continue
			}
			e.nbr = append(e.nbr[:0], t.Nodes[t.Parent[i]].P)
			for _, c := range e.Children(i) {
				e.nbr = append(e.nbr, t.Nodes[c].P)
			}
			m := e.medianPoint(e.nbr)
			if m == nd.P {
				continue
			}
			before := localWL(nd.P, e.nbr)
			after := localWL(m, e.nbr)
			if after < before {
				t.Nodes[i].P = m
				changed = true
				moved = true
			}
		}
		if !changed {
			break
		}
	}
	return moved
}

func localWL(p geom.Point, nbr []geom.Point) int64 {
	var s int64
	for _, q := range nbr {
		s = geom.AddCheck(s, geom.Dist(p, q))
	}
	return s
}
