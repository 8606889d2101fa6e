package dw

import (
	"math/bits"
	"slices"
)

// Skeleton is the grid structure the Pareto-DW recurrence runs on, shared
// by the concrete DP of this package and the symbolic enumeration of
// internal/param: the keep set of Lemma 2, the rank rectangles and
// projections of Lemma 3, the merge splits with the boundary walk of
// Lemma 4, and the order in which sink subsets are processed. It holds no
// solutions; each DP keeps its own states per (subset, node).
//
// The grid has nx columns and ny rows of rank coordinates; node (i, j) has
// index j·nx+i, as in hanan.Grid. Sinks are numbered by their bit in a
// subset mask.
type Skeleton struct {
	opts   Options
	nx, ny int
	keep   []bool
	nodes  []int    // unpruned nodes in grid order
	m      int      // number of sinks
	sinkNd []int    // node of each sink
	sinkIJ [][2]int // rank coordinates of each sink
	rootNd int
	// border lists the sinks on the grid boundary in clockwise walk order;
	// interior is the mask of the other sinks.
	border   []int
	interior int

	// Scratch behind the returned slices, reused across subsets.
	insideBuf []int
	outBuf    []Projection
	splitsBuf []int
	runBuf    []int
	// seenStamp/seenGen dedupe boundary splits: a submask is "seen" when
	// its stamp equals the current generation.
	seenStamp []int32
	seenGen   int32
}

// Projection pairs a node outside a subset's bounding box with its Lemma 3
// projection target, the nearest node of the box.
type Projection struct{ Node, Target int }

// NewSkeleton returns the skeleton of an nx×ny rank grid with the source
// at node root and sink s at node sinks[s]. The sinks must occupy
// distinct nodes; the pins they and the source occupy decide Lemma 2's
// keep set.
func NewSkeleton(nx, ny, root int, sinks []int, opts Options) *Skeleton {
	s := &Skeleton{opts: opts, nx: nx, ny: ny, m: len(sinks), sinkNd: sinks, rootNd: root}
	s.sinkIJ = make([][2]int, s.m)
	for k, nd := range sinks {
		s.sinkIJ[k][0], s.sinkIJ[k][1] = s.Coords(nd)
	}
	s.computeKeep()
	s.computeBorder()
	// Every scratch buffer at its largest size: no subset grows one.
	s.insideBuf = make([]int, 0, len(s.nodes))
	s.outBuf = make([]Projection, 0, len(s.nodes))
	s.runBuf = make([]int, 0, s.m)
	if s.m > 0 {
		s.splitsBuf = make([]int, 0, 1<<(s.m-1))
	}
	return s
}

// Node returns the index of grid node (i, j).
func (s *Skeleton) Node(i, j int) int { return j*s.nx + i }

// Coords returns the (i, j) coordinates of node nd.
func (s *Skeleton) Coords(nd int) (i, j int) { return nd % s.nx, nd / s.nx }

// computeKeep applies Lemma 2: a grid node is pruned when one of the four
// quadrant orders contains no pin weakly dominating it.
func (s *Skeleton) computeKeep() {
	s.keep = make([]bool, s.nx*s.ny)
	for nd := range s.keep {
		s.keep[nd] = !s.opts.PruneCorners || s.unpruned(nd)
		if s.keep[nd] {
			s.nodes = append(s.nodes, nd)
		}
	}
}

// unpruned reports whether every quadrant of node nd holds a pin: the
// source or a sink.
func (s *Skeleton) unpruned(nd int) bool {
	i, j := s.Coords(nd)
	var ll, lr, ul, ur bool
	for k := -1; k < s.m; k++ {
		p := s.rootNd
		if k >= 0 {
			p = s.sinkNd[k]
		}
		pi, pj := s.Coords(p)
		ll = ll || pi <= i && pj <= j
		lr = lr || pi >= i && pj <= j
		ul = ul || pi <= i && pj >= j
		ur = ur || pi >= i && pj >= j
	}
	return ll && lr && ul && ur
}

// computeBorder orders the sinks on the grid boundary by their position
// in the clockwise boundary walk (Lemma 4) and marks the others interior.
func (s *Skeleton) computeBorder() {
	s.border = make([]int, 0, s.m)
	for k, nd := range s.sinkNd {
		if s.boundaryPos(nd) < 0 {
			s.interior |= 1 << k
		} else {
			s.border = append(s.border, k)
		}
	}
	// Positions are distinct because the sinks occupy distinct nodes.
	slices.SortFunc(s.border, func(a, b int) int { return s.boundaryPos(s.sinkNd[a]) - s.boundaryPos(s.sinkNd[b]) })
}

// boundaryPos returns the position of node nd in the clockwise walk of
// the grid boundary that starts at (0,0) and goes up the left edge, right
// along the top, down the right edge and left along the bottom, or -1 for
// an interior node. A node on two edges takes the position of the edge
// walked first, so degenerate one-row or one-column grids number each
// node once.
func (s *Skeleton) boundaryPos(nd int) int {
	i, j := s.Coords(nd)
	w, h := s.nx-1, s.ny-1
	switch {
	case i == 0:
		return j
	case j == h:
		return h + i
	case i == w:
		return h + w + h - j
	case j == 0:
		return 2*h + w + w - i
	}
	return -1
}

// NextSubset returns the sink subset processed after q: subsets go in
// increasing popcount order, increasing in value within a popcount, so
// every proper subset of q comes before q. The first subset is 1; after
// the full set NextSubset returns 0.
func (s *Skeleton) NextSubset(q int) int {
	full := 1<<s.m - 1
	if q == full {
		return 0
	}
	// Gosper's hack: the next larger mask with the same popcount.
	low := q & -q
	r := q + low
	if next := (((r ^ q) >> 2) / low) | r; next <= full {
		return next
	}
	return 1<<(bits.OnesCount(uint(q))+1) - 1
}

// bbox returns the inclusive rank bounding box of the sinks in q.
func (s *Skeleton) bbox(q int) (ilo, jlo, ihi, jhi int) {
	ilo, jlo = s.nx, s.ny
	ihi, jhi = -1, -1
	for k, p := range s.sinkIJ {
		if q&(1<<k) == 0 {
			continue
		}
		ilo, ihi = min(ilo, p[0]), max(ihi, p[0])
		jlo, jhi = min(jlo, p[1]), max(jhi, p[1])
	}
	return
}

// Rect returns the rank rectangle whose nodes the DP solves directly for
// subset q: BB(q) with Lemma 3, the whole grid without it.
func (s *Skeleton) Rect(q int) (ilo, jlo, ihi, jhi int) {
	if s.opts.ProjectOutside {
		return s.bbox(q)
	}
	return 0, 0, s.nx - 1, s.ny - 1
}

// Inside returns the unpruned nodes of Rect(q) in grid order. The result
// aliases scratch valid until the next call.
func (s *Skeleton) Inside(q int) []int {
	ilo, jlo, ihi, jhi := s.Rect(q)
	out := s.insideBuf[:0]
	for j := jlo; j <= jhi; j++ {
		for i := ilo; i <= ihi; i++ {
			if nd := s.Node(i, j); s.keep[nd] {
				out = append(out, nd)
			}
		}
	}
	s.insideBuf = out
	return out
}

// Outside returns, in grid order, every unpruned node outside Rect(q)
// with its Lemma 3 projection target: for such a node v, S_{v,q} is the
// target's state extended by the wire from the target to v. It is empty
// without Lemma 3. The result aliases scratch valid until the next call.
func (s *Skeleton) Outside(q int) []Projection {
	out := s.outBuf[:0]
	if !s.opts.ProjectOutside {
		return out
	}
	ilo, jlo, ihi, jhi := s.bbox(q)
	for j := 0; j < s.ny; j++ {
		for i := 0; i < s.nx; i++ {
			v := s.Node(i, j)
			if !s.keep[v] || i >= ilo && i <= ihi && j >= jlo && j <= jhi {
				continue
			}
			u := s.Node(clamp(i, ilo, ihi), clamp(j, jlo, jhi))
			if !s.keep[u] {
				// The projection of an unpruned node onto BB(q) always has
				// a pin in each quadrant (sinks of q supply two sides, the
				// pins witnessing v's quadrants supply the others), so it is
				// never corner-pruned.
				panic("dw: projection target pruned; Lemma 2/3 invariant broken")
			}
			out = append(out, Projection{Node: v, Target: u})
		}
	}
	s.outBuf = out
	return out
}

// Splits returns the submasks q1 of q to merge with q\q1, each unordered
// split once (q1 always holds q's lowest sink). With Lemma 4, when every
// sink of q is on the grid boundary, only splits into two circularly
// consecutive runs of the boundary walk are returned. The result aliases
// scratch valid until the next call.
func (s *Skeleton) Splits(q int) []int {
	low := q & -q
	out := s.splitsBuf[:0]
	if s.opts.BoundarySplits && q&s.interior == 0 {
		run := s.runBuf[:0]
		for _, k := range s.border {
			if q&(1<<k) != 0 {
				run = append(run, k)
			}
		}
		s.runBuf = run
		if s.seenStamp == nil {
			s.seenStamp = make([]int32, 1<<s.m)
		}
		s.seenGen++
		// All circular runs of length 1..k-1; keep the side holding low.
		k := len(run)
		for start := 0; start < k; start++ {
			mask := 0
			for l := 1; l < k; l++ {
				mask |= 1 << run[(start+l-1)%k]
				q1 := mask
				if q1&low == 0 {
					q1 = q &^ q1
				}
				if s.seenStamp[q1] != s.seenGen {
					s.seenStamp[q1] = s.seenGen
					out = append(out, q1)
				}
			}
		}
	} else {
		for q1 := (q - 1) & q; q1 > 0; q1 = (q1 - 1) & q {
			if q1&low != 0 {
				out = append(out, q1)
			}
		}
	}
	s.splitsBuf = out
	return out
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
