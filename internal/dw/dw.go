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
// Neither step sorts. Every state is canonical (w ascending, d strictly
// descending), so one split's S₁ ⊕ S₂ is a two-pointer walk: emit
// (w₁+w₂, max(d₁,d₂)), then advance the side holding the max (both on a
// tie). Each emitted point comes from exactly one pair, and a two-way
// Pareto merge folds the splits' walks into M. The extension adds the same
// L1 length to both objectives, so the union over u separates into a row
// stage and a column stage over the rank rectangle: along each grid line a
// forward and a backward sweep merge every cell's list with its
// neighbour's running list shifted by the grid gap. Corner-pruned cells
// take part as transit cells.
//
// Ties between equal (w, d) are broken by the total order
// (w, d, kind, a, b) of a solution and its backpointer, so the tree kept
// for a frontier point is defined here, not by a sort's internals. The
// survivors of each state are pushed contiguously into one arena, in grid
// order, and S is one flat table of arena ranges addressed by q·nn+v.
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
	"math"
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
	out := make([]pareto.Sol, fr.n)
	for k, e := range c.arena[fr.off : fr.off+fr.n] {
		out[k] = pareto.Sol{W: e.w, D: e.d}
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

// cand is a solution of one DP step before it enters the arena. The step
// fixes its kind (kMerge in the merge step, kExt in the extension), so the
// total order (w, d, kind, a, b) reduces to (w, d, a, b) among cands.
type cand struct {
	w, d int64
	a, b int32
}

// before reports whether x precedes y in the total order (w, d, a, b).
func (x cand) before(y cand) bool {
	if x.w != y.w {
		return x.w < y.w
	}
	if x.d != y.d {
		return x.d < y.d
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// span is a contiguous range of entries: of the arena for a state, of a
// sweep buffer for a per-cell list.
type span struct{ off, n int32 }

func (s span) of(buf []cand) []cand { return buf[s.off : s.off+s.n] }

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
	nn          int // grid nodes
	// S[q*nn+v] is the arena range of S_{v,q}; a state's survivors are
	// pushed contiguously in canonical frontier order.
	S []span
	// M[v] is the arena range of the current subset's merge (or base)
	// candidates at v; empty outside the subset's inside nodes.
	M []span

	// Per-call scratch, sized from the grid once and reused across the
	// 2^m DP steps. Nothing outlives the call.
	insideBuf []int      // insideNodes result
	splitsBuf []int      // splits / boundarySplits result
	msBuf     []bdMember // boundarySplits members
	// seenStamp/seenGen replace boundarySplits' per-call map: a submask is
	// "seen" when its stamp equals the current generation.
	seenStamp []int32
	seenGen   int32
	// Merge-step fold: the accumulator, the next accumulator, one walk.
	acc, next, walk []cand
	sw              sweep
}

// sweep is the extension step's scratch: per-cell lists of the rank
// rectangle (cell index (j−jlo)·width + (i−ilo)) held as spans into
// shared buffers, plus one grid line's directional lists.
type sweep struct {
	seed, row, out       []cand // M as extension cands, row stage, column stage
	seedAt, rowAt, outAt []span
	fwd, bwd             []cand // one line's forward and backward lists
	fwdAt                []span
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
	if err := c.checkRange(); err != nil {
		return nil, err
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

// checkRange rejects nets whose DP sums could overflow int64. A state's
// tree has at most 2m−1 merge and base nodes, each reached by at most two
// extension edges no longer than the half-perimeter HP of the pins, so
// every value the DP forms (sweep intermediates included) is at most
// (4m−2)·HP; HP ≤ MaxInt64/(4m) bounds it. The spans are computed in
// uint64 because maxX−minX itself can overflow int64.
func (c *computation) checkRange() error {
	xs, ys := c.grid.Xs, c.grid.Ys
	spanX := uint64(xs[len(xs)-1]) - uint64(xs[0])
	spanY := uint64(ys[len(ys)-1]) - uint64(ys[0])
	limit := uint64(math.MaxInt64) / uint64(4*max(c.m, 1))
	if spanX > limit || spanY > limit-spanX {
		return fmt.Errorf("dw: pin spans %d×%d exceed half-perimeter %d, the int64-safe bound for %d distinct sinks",
			spanX, spanY, limit, c.m)
	}
	return nil
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
		seed: make([]cand, 0, 2*c.nn), row: make([]cand, 0, 2*c.nn), out: make([]cand, 0, 2*c.nn),
		seedAt: make([]span, c.nn), rowAt: make([]span, c.nn), outAt: make([]span, c.nn),
		fwd: make([]cand, 0, 2*longest), bwd: make([]cand, 0, 2*longest), fwdAt: make([]span, longest),
	}

	// Subsets in increasing popcount order, increasing within a popcount
	// (Gosper's hack steps to the next mask with the same popcount).
	for k := 1; k <= c.m; k++ {
		for q := (1 << k) - 1; q <= full; {
			if err := ctx.Err(); err != nil {
				return span{}, err
			}
			inside := c.insideNodes(q)
			if k == 1 {
				s := bits.TrailingZeros(uint(q))
				c.M[c.sinkNd[s]] = span{c.push(ent{w: 0, d: 0, kind: kBase, sink: int16(s)}), 1}
			} else {
				c.mergeCandidates(q, inside)
			}
			c.extend(q, inside)
			for _, v := range inside {
				c.M[v] = span{}
			}
			low := q & -q
			r := q + low
			q = (((r ^ q) >> 2) / low) | r
		}
	}
	return c.S[full*c.nn+c.rootNd], nil
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

// rect returns the rank rectangle the extension of q sweeps: BB(q) with
// Lemma 3, the whole grid without it.
func (c *computation) rect(q int) (ilo, jlo, ihi, jhi int) {
	if c.opts.ProjectOutside {
		return c.bbox(q)
	}
	return 0, 0, len(c.grid.Xs) - 1, len(c.grid.Ys) - 1
}

// insideNodes returns the unpruned grid nodes inside the rank bounding box
// of q (all unpruned nodes when Lemma 3 is disabled), in grid order. The
// result aliases a scratch buffer valid until the next call.
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

// mergeCandidates pushes M_{v,q}, the Pareto filter of S_{v,Q1} ⊕ S_{v,Q2}
// over the admissible splits of q, for every inside node v in order.
func (c *computation) mergeCandidates(q int, inside []int) {
	splits := c.splits(q)
	for _, v := range inside {
		acc := c.acc[:0]
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
			walk := c.walk[:0]
			for i, j := 0, 0; i < len(x) && j < len(y); {
				d := max(x[i].d, y[j].d)
				walk = append(walk, cand{w: x[i].w + y[j].w, d: d, a: s1.off + int32(i), b: s2.off + int32(j)})
				if x[i].d == d {
					i++
				}
				if y[j].d == d {
					j++
				}
			}
			c.walk = walk
			c.next = paretoMerge(c.next[:0], acc, walk, 0)
			acc, c.next = c.next, acc
		}
		c.acc = acc
		start := int32(len(c.arena))
		for _, e := range acc {
			c.arena = append(c.arena, ent{w: e.w, d: e.d, a: e.a, b: e.b, kind: kMerge})
		}
		c.M[v] = span{start, int32(len(acc))}
	}
}

// dominatesCorner reports whether the canonical list acc holds a point
// that weakly dominates (w, d) and differs from it.
func dominatesCorner(acc []cand, w, d int64) bool {
	// The last point with acc.w ≤ w has the least d among them.
	lo, hi := 0, len(acc)
	for lo < hi {
		mid := (lo + hi) / 2
		if acc[mid].w <= w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return false
	}
	p := acc[lo-1]
	return p.d < d || (p.d == d && p.w < w)
}

// paretoMerge appends to dst the Pareto filter of x ∪ (y + g), where y + g
// adds g to both objectives of every entry of y. Both inputs are canonical
// and so is the output; of entries with equal (w, d) the first in the
// total order survives, and exact duplicates collapse.
func paretoMerge(dst, x, y []cand, g int64) []cand {
	best := int64(math.MaxInt64)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		e := y[j]
		e.w += g
		e.d += g
		if x[i].before(e) {
			e = x[i]
			i++
		} else {
			j++
		}
		if e.d < best {
			dst = append(dst, e)
			best = e.d
		}
	}
	// One side is exhausted; the other's d strictly decreases, so its
	// survivors are the suffix below best.
	for ; i < len(x); i++ {
		if x[i].d < best {
			return append(dst, x[i:]...)
		}
	}
	for ; j < len(y); j++ {
		if y[j].d+g < best {
			for _, e := range y[j:] {
				dst = append(dst, cand{w: e.w + g, d: e.d + g, a: e.a, b: e.b})
			}
			return dst
		}
	}
	return dst
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

// extend computes S_{v,q} = Pareto(∪_u M_{u,q} + ‖u−v‖₁) over the rank
// rectangle of q by a row stage and a column stage of line sweeps, then
// pushes the states of the inside nodes in grid order. Outside nodes get
// their states by projection (Lemma 3).
func (c *computation) extend(q int, inside []int) {
	ilo, jlo, ihi, jhi := c.rect(q)
	w := ihi - ilo + 1
	sw := &c.sw
	// Seed every cell with its M as extension candidates carrying their
	// final backpointer (entry, source node).
	sw.seed = sw.seed[:0]
	for j := jlo; j <= jhi; j++ {
		for i := ilo; i <= ihi; i++ {
			u := c.grid.Node(i, j)
			m := c.M[u]
			start := int32(len(sw.seed))
			for e := m.off; e < m.off+m.n; e++ {
				sw.seed = append(sw.seed, cand{w: c.arena[e].w, d: c.arena[e].d, a: e, b: int32(u)})
			}
			sw.seedAt[(j-jlo)*w+(i-ilo)] = span{start, m.n}
		}
	}
	sw.row = sw.row[:0]
	for j := jlo; j <= jhi; j++ {
		sw.row = sw.line(c.grid.Xs[ilo:ihi+1], sw.seed, sw.seedAt, sw.row, sw.rowAt, (j-jlo)*w, 1)
	}
	sw.out = sw.out[:0]
	for i := ilo; i <= ihi; i++ {
		sw.out = sw.line(c.grid.Ys[jlo:jhi+1], sw.row, sw.rowAt, sw.out, sw.outAt, i-ilo, w)
	}
	for _, v := range inside {
		i, j := c.grid.Coords(v)
		start := int32(len(c.arena))
		l := sw.outAt[(j-jlo)*w+(i-ilo)].of(sw.out)
		for _, e := range l {
			c.arena = append(c.arena, ent{w: e.w, d: e.d, a: e.a, b: e.b, kind: kExt})
		}
		c.S[q*c.nn+v] = span{start, int32(len(l))}
	}
	if !c.opts.ProjectOutside {
		return
	}
	// Outside nodes: projection derivation (Lemma 3), computed eagerly so
	// later merges can read any node's state uniformly.
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
		src := c.S[q*c.nn+u]
		start := int32(len(c.arena))
		for e := src.off; e < src.off+src.n; e++ {
			x := c.arena[e]
			c.arena = append(c.arena, ent{w: x.w + dist, d: x.d + dist, kind: kExt, a: e, b: int32(u)})
		}
		c.S[q*c.nn+v] = span{start, src.n}
	}
}

// line sweeps one grid line of len(pos) cells at coordinates pos. Cell k
// reads its list from in at inAt[base+k·stride]; its result,
// Pareto(∪_k' in_k' + |pos_k − pos_k'|), is appended to dst and its span
// stored at dstAt[base+k·stride]. The forward sweep keeps
// f_k = Pareto(in_k ∪ f_{k−1} + gap), the backward sweep b_k likewise from
// the other end, and the result merges f_k with b_k.
func (s *sweep) line(pos []int64, in []cand, inAt []span, dst []cand, dstAt []span, base, stride int) []cand {
	s.fwd = s.fwd[:0]
	prev := span{}
	for k := range pos {
		var g int64
		if k > 0 {
			g = pos[k] - pos[k-1]
		}
		start := int32(len(s.fwd))
		s.fwd = paretoMerge(s.fwd, inAt[base+k*stride].of(in), prev.of(s.fwd), g)
		prev = span{start, int32(len(s.fwd)) - start}
		s.fwdAt[k] = prev
	}
	s.bwd = s.bwd[:0]
	prev = span{}
	for k := len(pos) - 1; k >= 0; k-- {
		var g int64
		if k < len(pos)-1 {
			g = pos[k+1] - pos[k]
		}
		start := int32(len(s.bwd))
		s.bwd = paretoMerge(s.bwd, inAt[base+k*stride].of(in), prev.of(s.bwd), g)
		prev = span{start, int32(len(s.bwd)) - start}
		at := int32(len(dst))
		dst = paretoMerge(dst, s.fwdAt[k].of(s.fwd), prev.of(s.bwd), 0)
		dstAt[base+k*stride] = span{at, int32(len(dst)) - at}
	}
	return dst
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
