// Package dw implements Pareto-DW (§IV-A of the paper): an exact dynamic
// program over the Hanan grid that computes the full Pareto frontier of
// timing-driven routing trees for a net, together with one tree per
// frontier point.
//
// The state S_{v,Q} is the Pareto set of (wirelength, delay) objective
// vectors of trees rooted at grid node v spanning the sink subset Q.
// Recurrence (1) of the paper:
//
//	S_{v,Q} = Pareto( ∪_u  S_{u,Q} + ‖u−v‖₁ ,            (extension)
//	                  ∪_{Q₁⊂Q} S_{v,Q₁} ⊕ S_{v,Q\Q₁} )    (merge)
//
// Subsets are processed in increasing popcount order; every solution keeps
// a backpointer so the corresponding tree can be reconstructed exactly.
//
// The three pruning lemmas of §V-A are implemented and independently
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
	"slices"

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
	entries, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]pareto.Item[*tree.Tree], len(entries))
	for i, e := range entries {
		t := c.reconstruct(e)
		out[i] = pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}, Val: t}
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
	entries, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]pareto.Sol, len(entries))
	for i, e := range entries {
		out[i] = pareto.Sol{W: c.arena[e].w, D: c.arena[e].d}
	}
	return out, nil
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

type computation struct {
	net     tree.Net
	opts    Options
	grid    *hanan.Grid
	arena   []ent
	nodes   []int // unpruned grid node indices
	keep    []bool
	m       int   // number of distinct sinks
	sinkNd  []int // grid node of each distinct sink
	sinkPt  []geom.Point
	sinkPin []int16       // original pin index of each distinct sink
	dup     map[int][]int // distinct sink -> extra pin indices at same point
	rootNd  int
	// boundary circular order position of each sink, -1 if interior
	boundaryPos []int
	// S[q] maps grid node -> entry indices (canonical frontier order).
	S [][][]int32

	// Per-subset scratch, reused across the 2^m DP steps (the DP runs
	// once per local-search window, so these appends dominated the
	// router's allocation profile before they were hoisted here).
	insideBuf []int      // insideNodes result
	splitsBuf []int      // splits / boundarySplits result
	msBuf     []bdMember // boundarySplits members
	srcsBuf   []int      // extend's non-empty source nodes
	// seenStamp/seenGen replace boundarySplits' per-call map: a submask is
	// "seen" when its stamp equals the current generation.
	seenStamp []int32
	seenGen   int32
}

// bdMember is one sink of a boundary-split enumeration with its position
// in the clockwise boundary walk.
type bdMember struct{ s, pos int }

func newComputation(net tree.Net, opts Options) (*computation, error) {
	n := net.Degree()
	if n == 0 {
		return nil, fmt.Errorf("dw: empty net")
	}
	if n > MaxExactDegree {
		return nil, fmt.Errorf("dw: degree %d exceeds MaxExactDegree %d", n, MaxExactDegree)
	}
	c := &computation{net: net, opts: opts, grid: hanan.NewGrid(net.Pins)}

	// Collapse duplicate sink positions; drop sinks at the source.
	src := net.Source()
	byPoint := map[geom.Point]int{}
	c.dup = map[int][]int{}
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
		c.sinkNd = append(c.sinkNd, nd)
	}
	c.m = len(c.sinkPt)
	if c.m > 62 {
		return nil, fmt.Errorf("dw: too many distinct sinks (%d)", c.m)
	}
	rootNd, err := c.grid.Locate(src)
	if err != nil {
		return nil, err
	}
	c.rootNd = rootNd
	c.computeKeep()
	c.computeBoundary()
	return c, nil
}

// computeKeep applies Lemma 2: a grid node is pruned when one of the four
// quadrant orders contains no pin weakly dominating it.
func (c *computation) computeKeep() {
	nn := c.grid.NumNodes()
	c.keep = make([]bool, nn)
	for idx := 0; idx < nn; idx++ {
		p := c.grid.Point(idx)
		if !c.opts.PruneCorners {
			c.keep[idx] = true
			continue
		}
		var ll, lr, ul, ur bool
		for _, q := range c.net.Pins {
			if q.X <= p.X && q.Y <= p.Y {
				ll = true
			}
			if q.X >= p.X && q.Y <= p.Y {
				lr = true
			}
			if q.X <= p.X && q.Y >= p.Y {
				ul = true
			}
			if q.X >= p.X && q.Y >= p.Y {
				ur = true
			}
		}
		c.keep[idx] = ll && lr && ul && ur
	}
	for idx := 0; idx < nn; idx++ {
		if c.keep[idx] {
			c.nodes = append(c.nodes, idx)
		}
	}
}

// computeBoundary assigns each sink its position in the clockwise walk of
// the grid boundary, or -1 for interior sinks (Lemma 4).
func (c *computation) computeBoundary() {
	c.boundaryPos = make([]int, c.m)
	nx, ny := len(c.grid.Xs), len(c.grid.Ys)
	// Clockwise walk starting at (0,0): up the left edge, right along the
	// top, down the right edge, left along the bottom.
	pos := map[int]int{}
	step := 0
	add := func(i, j int) {
		nd := c.grid.Node(i, j)
		if _, ok := pos[nd]; !ok {
			pos[nd] = step
			step++
		}
	}
	for j := 0; j < ny; j++ {
		add(0, j)
	}
	for i := 1; i < nx; i++ {
		add(i, ny-1)
	}
	for j := ny - 2; j >= 0; j-- {
		add(nx-1, j)
	}
	for i := nx - 2; i >= 1; i-- {
		add(i, 0)
	}
	for s := 0; s < c.m; s++ {
		if p, ok := pos[c.sinkNd[s]]; ok {
			c.boundaryPos[s] = p
		} else {
			c.boundaryPos[s] = -1
		}
	}
}

// run executes the dynamic program and returns the entry indices of the
// final frontier S_{r, all sinks}. The context is checked before every
// sink-subset so cancellation binds within one DP step.
func (c *computation) run(ctx context.Context) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.m == 0 {
		// No distinct sinks: the frontier is the single empty tree.
		c.arena = append(c.arena, ent{w: 0, d: 0, kind: kBase, sink: -1})
		return []int32{0}, nil
	}
	full := (1 << c.m) - 1
	c.S = make([][][]int32, full+1)
	nn := c.grid.NumNodes()

	// Subsets in increasing popcount order.
	order := make([]int, 0, full)
	for q := 1; q <= full; q++ {
		order = append(order, q)
	}
	slices.SortFunc(order, func(a, b int) int {
		if ba, bb := bits.OnesCount(uint(a)), bits.OnesCount(uint(b)); ba != bb {
			return ba - bb
		}
		return a - b
	})

	for _, q := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		Sq := make([][]int32, nn)
		// M: merge/base candidates per node.
		M := make([][]int32, nn)
		if bits.OnesCount(uint(q)) == 1 {
			s := bits.TrailingZeros(uint(q))
			e := c.push(ent{w: 0, d: 0, kind: kBase, sink: int16(s)})
			M[c.sinkNd[s]] = []int32{e}
		} else {
			c.mergeCandidates(q, M)
		}
		c.extend(q, M, Sq)
		c.S[q] = Sq
	}
	return c.stateAt(full, c.rootNd), nil
}

// bbox returns the inclusive rank-coordinate bounding box of the sinks in q.
func (c *computation) bbox(q int) (ilo, jlo, ihi, jhi int) {
	first := true
	for s := 0; s < c.m; s++ {
		if q&(1<<s) == 0 {
			continue
		}
		i, j := c.grid.Coords(c.sinkNd[s])
		if first {
			ilo, jlo, ihi, jhi = i, j, i, j
			first = false
			continue
		}
		if i < ilo {
			ilo = i
		}
		if i > ihi {
			ihi = i
		}
		if j < jlo {
			jlo = j
		}
		if j > jhi {
			jhi = j
		}
	}
	return
}

// insideNodes returns the unpruned grid nodes inside the rank bounding box
// of q (all unpruned nodes when Lemma 3 is disabled). The result aliases
// a scratch buffer valid until the next call.
func (c *computation) insideNodes(q int) []int {
	if !c.opts.ProjectOutside {
		return c.nodes
	}
	ilo, jlo, ihi, jhi := c.bbox(q)
	out := c.insideBuf[:0]
	for j := jlo; j <= jhi; j++ {
		for i := ilo; i <= ihi; i++ {
			nd := c.grid.Node(i, j)
			if c.keep[nd] {
				out = append(out, nd)
			}
		}
	}
	c.insideBuf = out
	return out
}

// mergeCandidates fills M[v] with the Pareto-filtered merge solutions
// S_{v,Q1} ⊕ S_{v,Q2} over the admissible splits of q.
func (c *computation) mergeCandidates(q int, M [][]int32) {
	splits := c.splits(q)
	inside := c.insideNodes(q)
	var cand []ent
	for _, v := range inside {
		cand = cand[:0]
		for _, q1 := range splits {
			q2 := q &^ q1
			s1 := c.stateAt(q1, v)
			s2 := c.stateAt(q2, v)
			for _, e1 := range s1 {
				for _, e2 := range s2 {
					w := c.arena[e1].w + c.arena[e2].w
					d := geom.Max64(c.arena[e1].d, c.arena[e2].d)
					cand = append(cand, ent{w: w, d: d, kind: kMerge, a: e1, b: e2})
				}
			}
		}
		M[v] = c.filterPush(cand)
	}
}

// splits enumerates the submasks q1 of q to merge with q\q1, each
// unordered split exactly once (q1 always contains q's lowest sink).
// With Lemma 4, when every sink of q is on the grid boundary only
// circularly consecutive runs are returned.
func (c *computation) splits(q int) []int {
	low := q & -q
	if c.opts.BoundarySplits && c.allOnBoundary(q) {
		return c.boundarySplits(q, low)
	}
	out := c.splitsBuf[:0]
	for q1 := (q - 1) & q; q1 > 0; q1 = (q1 - 1) & q {
		if q1&low != 0 {
			out = append(out, q1)
		}
	}
	c.splitsBuf = out
	return out
}

func (c *computation) allOnBoundary(q int) bool {
	for s := 0; s < c.m; s++ {
		if q&(1<<s) != 0 && c.boundaryPos[s] < 0 {
			return false
		}
	}
	return true
}

// boundarySplits returns the splits {q1, q\q1} where both sides are
// circularly consecutive in the clockwise boundary order, with q1
// containing the sink of mask low.
func (c *computation) boundarySplits(q, low int) []int {
	// Members sorted by boundary position (positions are distinct — each
	// distinct sink occupies its own grid node).
	ms := c.msBuf[:0]
	for s := 0; s < c.m; s++ {
		if q&(1<<s) != 0 {
			ms = append(ms, bdMember{s, c.boundaryPos[s]})
		}
	}
	c.msBuf = ms
	slices.SortFunc(ms, func(a, b bdMember) int { return a.pos - b.pos })
	k := len(ms)
	if c.seenStamp == nil {
		c.seenStamp = make([]int32, 1<<c.m)
	}
	c.seenGen++
	out := c.splitsBuf[:0]
	// All circular runs of length 1..k-1; keep the side containing low.
	for start := 0; start < k; start++ {
		mask := 0
		for l := 1; l < k; l++ {
			mask |= 1 << ms[(start+l-1)%k].s
			q1 := mask
			if q1&low == 0 {
				q1 = q &^ q1
			}
			if c.seenStamp[q1] != c.seenGen {
				c.seenStamp[q1] = c.seenGen
				out = append(out, q1)
			}
		}
	}
	c.splitsBuf = out
	return out
}

// extend computes the extension closure: S_{v,q} for inside nodes from the
// union over inside u of M_u + dist(u,v). Outside nodes are resolved
// lazily through stateAt (Lemma 3).
func (c *computation) extend(q int, M, Sq [][]int32) {
	inside := c.insideNodes(q)
	// Collect source nodes with non-empty M.
	srcs := c.srcsBuf[:0]
	for _, u := range inside {
		if len(M[u]) > 0 {
			srcs = append(srcs, u)
		}
	}
	c.srcsBuf = srcs
	var cand []ent
	for _, v := range inside {
		cand = cand[:0]
		for _, u := range srcs {
			dist := c.grid.Dist(u, v)
			for _, e := range M[u] {
				cand = append(cand, ent{
					w: c.arena[e].w + dist, d: c.arena[e].d + dist,
					kind: kExt, a: e, b: int32(u),
				})
			}
		}
		Sq[v] = c.filterPush(cand)
	}
	if !c.opts.ProjectOutside {
		return
	}
	// Outside nodes: projection derivation (Lemma 3), computed eagerly so
	// later merges can read any node's state uniformly.
	ilo, jlo, ihi, jhi := c.bbox(q)
	for _, v := range c.nodes {
		i, j := c.grid.Coords(v)
		if i >= ilo && i <= ihi && j >= jlo && j <= jhi {
			continue
		}
		ci, cj := clamp(i, ilo, ihi), clamp(j, jlo, jhi)
		u := c.grid.Node(ci, cj)
		if !c.keep[u] {
			// The projection of an unpruned node onto BB(q) always has a
			// pin in each quadrant (sinks of q supply two sides, the pins
			// witnessing v's quadrants supply the others), so it is never
			// corner-pruned.
			panic("dw: projection target pruned; Lemma 2/3 invariant broken")
		}
		dist := c.grid.Dist(u, v)
		src := Sq[u]
		der := make([]int32, 0, len(src))
		for _, e := range src {
			der = append(der, c.push(ent{
				w: c.arena[e].w + dist, d: c.arena[e].d + dist,
				kind: kExt, a: e, b: int32(u),
			}))
		}
		Sq[v] = der
	}
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// stateAt returns S_{q, v}.
func (c *computation) stateAt(q, v int) []int32 {
	return c.S[q][v]
}

func (c *computation) push(e ent) int32 {
	c.arena = append(c.arena, e)
	return int32(len(c.arena) - 1)
}

// filterPush Pareto-filters candidate entries and pushes only the
// survivors into the arena, returning their indices in canonical order
// (w increasing, d strictly decreasing), duplicates dropped.
func (c *computation) filterPush(cand []ent) []int32 {
	if len(cand) == 0 {
		return nil
	}
	slices.SortFunc(cand, func(a, b ent) int {
		if a.w != b.w {
			if a.w < b.w {
				return -1
			}
			return 1
		}
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		}
		return 0
	})
	// Count survivors first so the persistent result is one exact
	// allocation rather than a growth sequence.
	n := 0
	bestD := int64(1<<63 - 1)
	for _, e := range cand {
		if e.d < bestD {
			n++
			bestD = e.d
		}
	}
	out := make([]int32, 0, n)
	bestD = int64(1<<63 - 1)
	for _, e := range cand {
		if e.d < bestD {
			out = append(out, c.push(e))
			bestD = e.d
		}
	}
	return out
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
