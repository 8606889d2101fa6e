// Package dw implements Pareto-DW (§IV-A of the paper): an exact dynamic
// program over the Hanan grid that computes the full Pareto frontier of
// timing-driven routing trees for a net, together with one tree per
// frontier point.
//
// The state S_{v,Q} is the Pareto set of (wirelength, delay) objective
// vectors of trees rooted at grid node v spanning the sink subset Q.
// Recurrence (1) of the paper, with M_{v,Q} the merge candidates at v:
//
//	M_{v,Q} = Pareto( ∪_{Q₁⊂Q} S_{v,Q₁} ⊕ S_{v,Q\Q₁} )    (merge)
//	S_{v,Q} = Pareto( ∪_u  M_{u,Q} + ‖u−v‖₁ )            (extension)
//
// Subsets are processed in increasing popcount order; every solution keeps
// a backpointer so the corresponding tree can be reconstructed exactly.
//
// Neither step sorts, and both run on the one Pareto kernel of
// internal/pareto. Every state is canonical (w ascending, d strictly
// descending), so one split's S₁ ⊕ S₂ is pareto.Join, a two-pointer walk
// in which each emitted point comes from exactly one pair, and
// pareto.Union folds the splits' walks into M. The extension adds the same
// L1 length to both objectives, so the union over u separates into a row
// stage and a column stage over the rank rectangle: along each grid line a
// forward and a backward sweep Union every cell's list with its
// neighbour's running list shifted by the grid gap. Corner-pruned cells
// take part as transit cells.
//
// Ties between equal (w, d) are broken by the total order
// (w, d, kind, a, b) of a solution and its backpointer, so the tree kept
// for a frontier point is defined here, not by a sort's internals: each
// step fixes kind, and the kernel's pairs are the backpointers (arena
// offsets in the merge, entry and source node in the extension). The
// survivors of each state are pushed contiguously into one arena, in grid
// order, and S is one flat table of arena ranges addressed by q·nn+v.
//
// The grid structure — the three pruning lemmas of §V-A, the subset order
// and the split enumeration — is the Skeleton, which the symbolic
// enumeration of internal/param shares. The lemmas are independently
// switchable for ablation studies:
//
//	Lemma 2 — corner grid nodes (no pin weakly dominating them in one of
//	          the four quadrant orders) are removed from the grid.
//	Lemma 3 — for v outside the bounding box of Q, S_{v,Q} is derived by
//	          projecting v onto BB(Q) instead of scanning all nodes.
//	Lemma 4 — when all sinks of Q lie on the grid boundary, only splits
//	          into circularly consecutive runs are enumerated.
package dw

import (
	"context"
	"fmt"
	"math/bits"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Options controls the pruning techniques of the dynamic program. All
// prunings are safe: results are identical with any combination, only the
// running time changes.
type Options struct {
	PruneCorners   bool // Lemma 2
	ProjectOutside bool // Lemma 3
	BoundarySplits bool // Lemma 4
}

// DefaultOptions enables every pruning.
func DefaultOptions() Options {
	return Options{PruneCorners: true, ProjectOutside: true, BoundarySplits: true}
}

// MaxExactDegree is the largest net degree FrontierContext accepts. The DP is
// exponential in the degree; beyond this the practical method's local
// search (internal/core) must be used.
const MaxExactDegree = 16

// FrontierContext computes the exact Pareto frontier of the net and one
// optimal tree per frontier point, in canonical frontier order. The
// context is checked once per sink-subset of the dynamic program, so an
// expired deadline aborts within one subset's worth of work.
func FrontierContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	c, err := newComputation(net, opts)
	if err != nil {
		return nil, err
	}
	fr, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]pareto.Item[*tree.Tree], fr.n)
	for k := range out {
		e := fr.off + int32(k)
		out[k] = pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}, Val: c.reconstruct(e)}
	}
	return out, nil
}

// FrontierSolsContext computes only the objective vectors of the exact
// Pareto frontier (no tree reconstruction), with cancellation as in
// FrontierContext.
func FrontierSolsContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Sol, error) {
	c, err := newComputation(net, opts)
	if err != nil {
		return nil, err
	}
	fr, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	return entSols(nil, c.arena[fr.off:fr.off+fr.n]), nil
}

type entKind uint8

const (
	kBase  entKind = iota // a single sink at its own node
	kExt                  // extension: edge from node b to this state's node
	kMerge                // union of two subtrees rooted at the same node
)

// ent is one solution with its backpointer. For kExt, a is the child entry
// and b the node extended from; for kMerge, a and b are the child entries;
// for kBase, sink is the pin index realised.
type ent struct {
	w, d int64
	a, b int32
	sink int16
	kind entKind
}

// span is a contiguous range of entries: of the arena for a state, of a
// sweep buffer for a per-cell list.
type span struct{ off, n int32 }

func (s span) of(buf []pareto.Pair) []pareto.Pair { return buf[s.off : s.off+s.n] }

// computation is one run of the DP over the skeleton of a net's Hanan
// grid. Its arena holds every solution with its backpointer; a merge
// step's pairs are arena offsets, so kernel outputs push unchanged.
type computation struct {
	*Skeleton
	net     tree.Net
	grid    *hanan.Grid
	arena   []ent
	sinkPt  []geom.Point
	sinkPin []int16       // original pin index of each distinct sink
	dup     map[int][]int // distinct sink -> extra pin indices at same point
	nn      int           // grid nodes
	// S[q*nn+v] is the arena range of S_{v,q}; a state's survivors are
	// pushed contiguously in canonical frontier order.
	S []span
	// M[v] is the arena range of the current subset's merge (or base)
	// candidates at v; empty outside the subset's inside nodes.
	M []span

	// Per-call scratch, sized from the grid once and reused across the
	// 2^m DP steps. Nothing outlives the call.
	// Merge-step fold: the accumulator, the next accumulator, one walk,
	// and the objective vectors of the walk's two operands.
	acc, next, walk []pareto.Pair
	xs              []pareto.Sol
	sw              sweep
}

// sweep is the extension step's scratch: per-cell lists of the rank
// rectangle, indexed by grid node and held as spans into shared buffers,
// plus one grid line's directional lists.
type sweep struct {
	seed, row, out       []pareto.Pair // M as extension pairs, row stage, column stage
	seedAt, rowAt, outAt []span
	fwd, bwd             []pareto.Pair // one line's forward and backward lists
	fwdAt                []span
}

func newComputation(net tree.Net, opts Options) (*computation, error) {
	n := net.Degree()
	if n == 0 {
		return nil, fmt.Errorf("dw: empty net")
	}
	if n > MaxExactDegree {
		return nil, fmt.Errorf("dw: degree %d exceeds MaxExactDegree %d", n, MaxExactDegree)
	}
	c := &computation{net: net, grid: hanan.NewGrid(net.Pins)}

	// Collapse duplicate sink positions; drop sinks at the source.
	src := net.Source()
	byPoint := map[geom.Point]int{}
	c.dup = map[int][]int{}
	var sinkNd []int
	for pin := 1; pin < n; pin++ {
		p := net.Pins[pin]
		if p == src {
			c.dup[-1] = append(c.dup[-1], pin)
			continue
		}
		if k, ok := byPoint[p]; ok {
			c.dup[k] = append(c.dup[k], pin)
			continue
		}
		k := len(c.sinkPt)
		byPoint[p] = k
		c.sinkPt = append(c.sinkPt, p)
		c.sinkPin = append(c.sinkPin, int16(pin))
		nd, err := c.grid.Locate(p)
		if err != nil {
			return nil, err
		}
		sinkNd = append(sinkNd, nd)
	}
	if err := hanan.CheckRange(net.Pins, len(sinkNd)); err != nil {
		return nil, err
	}
	rootNd, err := c.grid.Locate(src)
	if err != nil {
		return nil, err
	}
	c.Skeleton = NewSkeleton(len(c.grid.Xs), len(c.grid.Ys), rootNd, sinkNd, opts)
	return c, nil
}

// run executes the dynamic program and returns the arena range of the
// final frontier S_{r, all sinks}. The context is checked before every
// sink-subset so cancellation binds within one DP step.
func (c *computation) run(ctx context.Context) (span, error) {
	if err := ctx.Err(); err != nil {
		return span{}, err
	}
	if c.m == 0 {
		// No distinct sinks: the frontier is the single empty tree.
		c.arena = append(c.arena, ent{w: 0, d: 0, kind: kBase, sink: -1})
		return span{0, 1}, nil
	}
	full := (1 << c.m) - 1
	c.nn = c.grid.NumNodes()
	c.S = make([]span, (full+1)*c.nn)
	c.M = make([]span, c.nn)
	// Every subset stores at least one entry per unpruned node and
	// typically fewer than two, so the arena rarely grows past this.
	c.arena = make([]ent, 0, 2*(full+1)*len(c.nodes))
	longest := max(len(c.grid.Xs), len(c.grid.Ys))
	c.sw = sweep{
		seed: make([]pareto.Pair, 0, 2*c.nn), row: make([]pareto.Pair, 0, 2*c.nn), out: make([]pareto.Pair, 0, 2*c.nn),
		seedAt: make([]span, c.nn), rowAt: make([]span, c.nn), outAt: make([]span, c.nn),
		fwd: make([]pareto.Pair, 0, 2*longest), bwd: make([]pareto.Pair, 0, 2*longest), fwdAt: make([]span, longest),
	}

	for q := 1; q != 0; q = c.NextSubset(q) {
		if err := ctx.Err(); err != nil {
			return span{}, err
		}
		inside := c.Inside(q)
		if q&(q-1) == 0 {
			s := bits.TrailingZeros(uint(q))
			c.M[c.sinkNd[s]] = span{c.push(ent{w: 0, d: 0, kind: kBase, sink: int16(s)}), 1}
		} else {
			c.mergeCandidates(q, inside)
		}
		c.extend(q, inside)
		for _, v := range inside {
			c.M[v] = span{}
		}
	}
	return c.S[full*c.nn+c.rootNd], nil
}

// mergeCandidates pushes M_{v,q}, the Pareto filter of S_{v,Q1} ⊕ S_{v,Q2}
// over the admissible splits of q, for every inside node v in order.
func (c *computation) mergeCandidates(q int, inside []int) {
	splits := c.Splits(q)
	// The fold's buffers live in locals while it runs: storing slice
	// headers into c on every split would cost a GC write barrier each.
	acc, next, walk, xs := c.acc, c.next, c.walk, c.xs
	for _, v := range inside {
		acc = acc[:0]
		for _, q1 := range splits {
			s1, s2 := c.S[q1*c.nn+v], c.S[(q&^q1)*c.nn+v]
			if s1.n == 0 || s2.n == 0 {
				continue
			}
			x, y := c.arena[s1.off:s1.off+s1.n], c.arena[s2.off:s2.off+s2.n]
			// Skip the split when acc strictly dominates its ideal corner;
			// an equal corner may still tie, so it is walked.
			if dominatesCorner(acc, x[0].w+y[0].w, max(x[len(x)-1].d, y[len(y)-1].d)) {
				continue
			}
			xs = entSols(entSols(xs[:0], x), y)
			walk = pareto.Join(walk[:0], xs[:len(x)], xs[len(x):], s1.off, s2.off, 0)
			next = pareto.Union(next[:0], acc, walk, 0)
			acc, next = next, acc
		}
		c.M[v] = c.pushPairs(acc, kMerge)
	}
	c.acc, c.next, c.walk, c.xs = acc, next, walk, xs
}

// entSols appends the objective vectors of the entries es to dst; the ⊕
// walk reads its operands in this form.
func entSols(dst []pareto.Sol, es []ent) []pareto.Sol {
	for i := range es {
		dst = append(dst, pareto.Sol{W: es[i].w, D: es[i].d})
	}
	return dst
}

// dominatesCorner reports whether the canonical list acc holds a point
// that weakly dominates (w, d) and differs from it.
func dominatesCorner(acc []pareto.Pair, w, d int64) bool {
	// The last point with acc.W ≤ w has the least D among them.
	lo, hi := 0, len(acc)
	for lo < hi {
		mid := (lo + hi) / 2
		if acc[mid].W <= w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return false
	}
	p := acc[lo-1]
	return p.D < d || (p.D == d && p.W < w)
}

// extend computes S_{v,q} = Pareto(∪_u M_{u,q} + ‖u−v‖₁) over the rank
// rectangle of q by a row stage and a column stage of line sweeps, then
// pushes the states of the inside nodes in grid order. Outside nodes get
// their states by projection (Lemma 3).
func (c *computation) extend(q int, inside []int) {
	ilo, jlo, ihi, jhi := c.Rect(q)
	sw := &c.sw
	// Seed every cell with its M as extension pairs carrying their final
	// backpointer (entry, source node).
	seed := sw.seed[:0]
	for j := jlo; j <= jhi; j++ {
		for i := ilo; i <= ihi; i++ {
			u := c.grid.Node(i, j)
			m := c.M[u]
			start := int32(len(seed))
			for e := m.off; e < m.off+m.n; e++ {
				seed = append(seed, pareto.Pair{Sol: pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}, A: e, B: int32(u)})
			}
			sw.seedAt[u] = span{start, m.n}
		}
	}
	sw.seed = seed
	sw.row = sw.row[:0]
	for j := jlo; j <= jhi; j++ {
		sw.row = sw.line(c.grid.Xs[ilo:ihi+1], sw.seed, sw.seedAt, sw.row, sw.rowAt, c.grid.Node(ilo, j), 1)
	}
	sw.out = sw.out[:0]
	for i := ilo; i <= ihi; i++ {
		sw.out = sw.line(c.grid.Ys[jlo:jhi+1], sw.row, sw.rowAt, sw.out, sw.outAt, c.grid.Node(i, jlo), len(c.grid.Xs))
	}
	for _, v := range inside {
		c.S[q*c.nn+v] = c.pushPairs(sw.outAt[v].of(sw.out), kExt)
	}
	// Outside nodes: projection derivation (Lemma 3), computed eagerly so
	// later merges can read any node's state uniformly.
	for _, pr := range c.Outside(q) {
		u, v := pr.Target, pr.Node
		dist := c.grid.Dist(u, v)
		src := c.S[q*c.nn+u]
		start, arena := int32(len(c.arena)), c.arena
		for e := src.off; e < src.off+src.n; e++ {
			x := arena[e]
			arena = append(arena, ent{w: x.w + dist, d: x.d + dist, kind: kExt, a: e, b: int32(u)})
		}
		c.arena = arena
		c.S[q*c.nn+v] = span{start, src.n}
	}
}

// line sweeps one grid line of len(pos) cells at coordinates pos. Cell k
// reads its list from in at inAt[base+k·stride]; its result,
// Pareto(∪_k' in_k' + |pos_k − pos_k'|), is appended to dst and its span
// stored at dstAt[base+k·stride]. The forward sweep keeps
// f_k = Pareto(in_k ∪ f_{k−1} + gap), the backward sweep b_k likewise from
// the other end, and the result merges f_k with b_k.
func (s *sweep) line(pos []int64, in []pareto.Pair, inAt []span, dst []pareto.Pair, dstAt []span, base, stride int) []pareto.Pair {
	fwd, bwd := s.fwd[:0], s.bwd[:0]
	prev := span{}
	for k := range pos {
		var g int64
		if k > 0 {
			g = pos[k] - pos[k-1]
		}
		start := int32(len(fwd))
		fwd = pareto.Union(fwd, inAt[base+k*stride].of(in), prev.of(fwd), g)
		prev = span{start, int32(len(fwd)) - start}
		s.fwdAt[k] = prev
	}
	prev = span{}
	for k := len(pos) - 1; k >= 0; k-- {
		var g int64
		if k < len(pos)-1 {
			g = pos[k+1] - pos[k]
		}
		start := int32(len(bwd))
		bwd = pareto.Union(bwd, inAt[base+k*stride].of(in), prev.of(bwd), g)
		prev = span{start, int32(len(bwd)) - start}
		at := int32(len(dst))
		switch {
		case k == len(pos)-1:
			// b_k holds only in_k, whose candidates f_k holds: the result
			// is f_k.
			dst = append(dst, s.fwdAt[k].of(fwd)...)
		case k == 0:
			// Likewise f_0 holds only in_0.
			dst = append(dst, prev.of(bwd)...)
		default:
			dst = pareto.Union(dst, s.fwdAt[k].of(fwd), prev.of(bwd), 0)
		}
		dstAt[base+k*stride] = span{at, int32(len(dst)) - at}
	}
	s.fwd, s.bwd = fwd, bwd
	return dst
}

// pushPairs appends the pairs ps to the arena as entries of the given kind,
// each pair being the entry's backpointer, and returns their range.
func (c *computation) pushPairs(ps []pareto.Pair, kind entKind) span {
	start, arena := int32(len(c.arena)), c.arena
	for _, p := range ps {
		arena = append(arena, ent{w: p.W, d: p.D, a: p.A, b: p.B, kind: kind})
	}
	c.arena = arena
	return span{start, int32(len(ps))}
}

func (c *computation) push(e ent) int32 {
	c.arena = append(c.arena, e)
	return int32(len(c.arena) - 1)
}

// reconstruct rebuilds the routing tree of entry e, rooted at the source.
func (c *computation) reconstruct(e int32) *tree.Tree {
	t := tree.New(c.net.Source(), 0)
	c.emit(e, c.rootNd, t.Root, t)
	// Attach duplicate pins: sinks co-located with the source...
	for _, pin := range c.dup[-1] {
		t.Add(c.net.Source(), pin, t.Root)
	}
	// ...and sinks co-located with another sink, attached with zero-length
	// edges at their shared position. Iterate distinct sinks by index, not
	// by ranging c.dup: map order would make the node order of trees with
	// duplicate pins depend on the iteration seed.
	for k := 0; k < c.m; k++ {
		for _, pin := range c.dup[k] {
			// Find a tree node at the sink position.
			at := -1
			for i, nd := range t.Nodes {
				if nd.P == c.sinkPt[k] {
					at = i
					break
				}
			}
			if at < 0 {
				at = t.Root // unreachable in valid reconstructions
			}
			t.Add(c.sinkPt[k], pin, at)
		}
	}
	t.Compact()
	return t
}

// emit materialises entry e as a subtree hanging off tree node atNode,
// where atNode is positioned at grid node v.
func (c *computation) emit(e int32, v int, atNode int, t *tree.Tree) {
	en := c.arena[e]
	switch en.kind {
	case kBase:
		if en.sink < 0 {
			return
		}
		pt := c.sinkPt[en.sink]
		pin := int(c.sinkPin[en.sink])
		if t.Nodes[atNode].P == pt && t.Nodes[atNode].IsSteiner() {
			t.Nodes[atNode].Pin = pin
			return
		}
		t.Add(pt, pin, atNode)
	case kExt:
		u := int(en.b)
		child := t.Add(c.grid.Point(u), -1, atNode)
		c.emit(en.a, u, child, t)
	case kMerge:
		c.emit(en.a, v, atNode, t)
		c.emit(en.b, v, atNode, t)
	}
}
