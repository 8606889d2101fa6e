package tree

import (
	"sync"

	"patlabor/internal/geom"
	"patlabor/internal/pareto"
)

// Evaluator is reusable evaluation scratch for routing trees. The
// allocating helpers on Tree (Children, PathLengths, Sol) build fresh
// slices on every call, which dominates the allocation profile of the
// large-net local search — every iteration evaluates dozens of candidate
// trees. An Evaluator holds the child
// adjacency in CSR form (one offset slice, one child slice) plus the
// traversal order and per-node length buffers, all grown once and reused
// across calls, so steady-state evaluation is allocation free.
//
// An Evaluator is not safe for concurrent use; each search (or worker)
// owns its own, typically via GetEvaluator/PutEvaluator.
type Evaluator struct {
	// CSR child adjacency of the last loaded tree: the children of node v
	// are child[start[v]:start[v+1]].
	start []int32
	child []int32
	// order is the root-first traversal order of the last loaded tree.
	order []int32
	// pl is the per-node path-length buffer.
	pl []int64
	// sink is the per-pin delay buffer of SinkDelaysInto.
	sink []int64
	// nbr/xs/ys are neighbourhood scratch for median relocation.
	nbr    []geom.Point
	xs, ys []int64
	// st and heap are SteinerizeWith's per-node state and its queue of
	// nodes with a positive gain (see steinerNode).
	st   []steinerNode
	heap []int32
	// idx maps a grafted tree's nodes to their indices in the host tree
	// (GraftWith).
	idx []int32
}

// evalPool recycles evaluators for the compatibility wrappers (Compact,
// Steinerize, Graft, salt.Rebalance, policy.Select) so one-shot callers
// do not pay a fresh scratch allocation per call.
var evalPool = sync.Pool{New: func() any { return new(Evaluator) }}

// NewEvaluator returns a fresh evaluator. Long-lived owners (one local
// search, one engine worker) should prefer this over the pool.
func NewEvaluator() *Evaluator { return new(Evaluator) }

// GetEvaluator borrows an evaluator from the shared pool.
func GetEvaluator() *Evaluator { return evalPool.Get().(*Evaluator) }

// PutEvaluator returns a borrowed evaluator to the shared pool.
func PutEvaluator(e *Evaluator) { evalPool.Put(e) }

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// Load rebuilds the CSR child adjacency and the root-first order for t.
// It must be called again after any structural change (Add, remove,
// reparenting); coordinate or pin-index changes do not invalidate it.
func (e *Evaluator) Load(t *Tree) {
	n := len(t.Nodes)
	e.start = growInt32(e.start, n+1)
	e.child = growInt32(e.child, n)
	for i := range e.start {
		e.start[i] = 0
	}
	for _, p := range t.Parent {
		if p >= 0 {
			e.start[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		e.start[v+1] += e.start[v]
	}
	// Fill buckets with a moving cursor per parent: iterating node indices
	// ascending keeps each child list in index order, matching
	// Tree.Children.
	for i, p := range t.Parent {
		if p >= 0 {
			e.child[e.start[p]] = int32(i)
			e.start[p]++
		}
	}
	// The cursors drifted to each bucket's end; shift back to starts.
	for v := n; v > 0; v-- {
		e.start[v] = e.start[v-1]
	}
	e.start[0] = 0
	// Root-first order, children in index order (matches Tree.TopoOrder).
	// The order slice doubles as the BFS queue.
	e.order = append(e.order[:0], int32(t.Root))
	for head := 0; head < len(e.order); head++ {
		v := e.order[head]
		e.order = append(e.order, e.child[e.start[v]:e.start[v+1]]...)
	}
}

// Children returns the child indices of node v in the last loaded tree.
// The slice aliases the evaluator's scratch and is valid until the next
// Load.
func (e *Evaluator) Children(v int) []int32 {
	return e.child[e.start[v]:e.start[v+1]]
}

// Order returns the root-first traversal order of the last loaded tree.
// The slice aliases the evaluator's scratch and is valid until the next
// Load.
func (e *Evaluator) Order() []int32 { return e.order }

// LengthScratch returns the evaluator's zeroed per-node length buffer of
// length n, for callers that compute path lengths interleaved with tree
// edits (salt.RebalanceWith). The slice is valid until the next
// path-length call.
func (e *Evaluator) LengthScratch(n int) []int64 {
	e.pl = growInt64(e.pl, n)
	for i := range e.pl {
		e.pl[i] = 0
	}
	return e.pl
}

// PathLengthsInto computes, for each node of t, the rectilinear path
// length from the root along tree edges, into the evaluator's buffer. It
// is Tree.PathLengths without the per-call allocations; the returned
// slice is valid until the next path-length call on e.
func (e *Evaluator) PathLengthsInto(t *Tree) []int64 {
	e.Load(t)
	return e.pathLengths(t)
}

// pathLengths assumes Load(t) has been called.
func (e *Evaluator) pathLengths(t *Tree) []int64 {
	pl := e.LengthScratch(len(t.Nodes))
	for _, v := range e.order {
		if p := t.Parent[v]; p >= 0 {
			pl[v] = pl[p] + geom.Dist(t.Nodes[v].P, t.Nodes[p].P)
		}
	}
	return pl
}

// SinkDelaysInto computes the per-pin path lengths of t indexed by pin
// (0..degree-1): the maximum path length over the nodes realising each
// pin, 0 for pins not present. The returned slice aliases the
// evaluator's scratch and is valid until its next call.
func (e *Evaluator) SinkDelaysInto(t *Tree, degree int) []int64 {
	e.Load(t)
	pl := e.pathLengths(t)
	e.sink = growInt64(e.sink, degree)
	out := e.sink
	for i := range out {
		out[i] = 0
	}
	for i, nd := range t.Nodes {
		if nd.Pin >= 0 && nd.Pin < degree && pl[i] > out[nd.Pin] {
			out[nd.Pin] = pl[i]
		}
	}
	return out
}

// Sol returns the objective vector (wirelength, delay) of t in one pass
// over the loaded adjacency, without the intermediate slices of
// Tree.Sol.
func (e *Evaluator) Sol(t *Tree) pareto.Sol {
	e.Load(t)
	pl := e.pathLengths(t)
	var w, d int64
	for i, p := range t.Parent {
		if p >= 0 {
			w = geom.AddCheck(w, geom.Dist(t.Nodes[i].P, t.Nodes[p].P))
		}
	}
	for i, nd := range t.Nodes {
		if nd.Pin >= 1 && pl[i] > d {
			d = pl[i]
		}
	}
	return pareto.Sol{W: w, D: d}
}

// medianPoint is geom.MedianPoint on the evaluator's scratch: the
// componentwise lower median of the points. Neighbourhood sets are tiny
// (a node's parent plus children), so insertion sort beats sort.Slice
// and keeps the call allocation free.
func (e *Evaluator) medianPoint(pts []geom.Point) geom.Point {
	e.xs = e.xs[:0]
	e.ys = e.ys[:0]
	for _, p := range pts {
		e.xs = append(e.xs, p.X)
		e.ys = append(e.ys, p.Y)
	}
	insort64(e.xs)
	insort64(e.ys)
	return geom.Point{X: e.xs[(len(e.xs)-1)/2], Y: e.ys[(len(e.ys)-1)/2]}
}

func insort64(x []int64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
