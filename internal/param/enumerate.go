package param

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"patlabor/internal/dw"
	"patlabor/internal/hanan"
)

// EnumeratePattern runs the symbolic Pareto-DW dynamic program of §V-A on
// a degree-n pattern and returns every potentially Pareto-optimal tree
// topology: any topology that is on the exact Pareto frontier for at least
// one concrete assignment of the gap lengths survives. The result is what
// a lookup table stores for the pattern.
//
// It runs on the concrete DP's grid skeleton (dw.Skeleton) with all three
// pruning lemmas applied (they are safe, see internal/dw), plus the
// Lemma-1 parameterised dominance check via Solution.Prunes.
func EnumeratePattern(p hanan.Pattern) ([]Topology, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("param: invalid pattern %v", p)
	}
	n := p.N
	if n < 2 {
		return nil, fmt.Errorf("param: degree %d too small", n)
	}
	if n > 12 {
		return nil, fmt.Errorf("param: degree %d too large for symbolic enumeration", n)
	}
	e := newEnum(p)
	final := e.run()
	seen := map[string]bool{}
	var out []Topology
	for _, idx := range final {
		topo := e.reconstruct(idx)
		topo.spliceMonotone(n)
		k := topo.Canon()
		if !seen[k] {
			seen[k] = true
			out = append(out, topo)
		}
	}
	return out, nil
}

type sentKind uint8

const (
	sBase sentKind = iota
	sExt
	sMerge
)

type sent struct {
	sol  Solution
	fp   [nFP]int64 // fingerprint: (w,d) at fixed probe gap assignments
	a, b int32
	sink int16
	kind sentKind
}

// nFP probe assignments for cheap pruning pre-checks.
const nFP = 2

// enum is one symbolic DP over the n×n rank grid of a pattern. Its states
// are arena index lists S[q][v], filtered by Lemma 1's parametric
// dominance; the grid structure is the skeleton's.
type enum struct {
	*dw.Skeleton
	n      int
	arena  []sent
	sinkNd []int // rank node of sink slot s
	rootNd int
	probes [nFP][]int64 // probe gap vectors (dim 2n-2)
	distV  map[[2]int]Vec
	S      [][][]int32
}

func newEnum(p hanan.Pattern) *enum {
	n := p.N
	e := &enum{n: n, distV: map[[2]int]Vec{}}
	// Sinks in x-rank order, skipping the source; rank node (i, j) has
	// index j·n+i.
	for i := 0; i < n; i++ {
		nd := int(p.Perm[i])*n + i
		if uint8(i) == p.Src {
			e.rootNd = nd
			continue
		}
		e.sinkNd = append(e.sinkNd, nd)
	}
	e.Skeleton = dw.NewSkeleton(n, n, e.rootNd, e.sinkNd, dw.DefaultOptions())
	e.buildProbes()
	return e
}

// buildProbes fixes deterministic positive gap assignments used as cheap
// necessary conditions for Prunes.
func (e *enum) buildProbes() {
	dim := 2 * (e.n - 1)
	for f := 0; f < nFP; f++ {
		v := make([]int64, dim)
		for k := range v {
			switch f {
			case 0:
				v[k] = 1
			default:
				// Distinct pseudo-random-ish positive weights.
				v[k] = int64(3 + (7*k+11*f)%13)
			}
		}
		e.probes[f] = v
	}
}

// Fingerprint packing layout: w in the high bits, d in the low fpShift
// bits. Probe weights are small (≤ 15) so both values fit comfortably at
// every supported degree; if a future degree pushes one out of range the
// probe degrades to the fpOverflow sentinel, which never filters, so the
// exact Prunes check still decides and results stay identical.
const (
	fpShift    = 20
	fpMask     = 1<<fpShift - 1
	fpMaxW     = 1<<(63-fpShift) - 1
	fpOverflow = -1 // packing out of range: probe is inconclusive
)

func (e *enum) fingerprint(s Solution) [nFP]int64 {
	var fp [nFP]int64
	for f := 0; f < nFP; f++ {
		h := e.probes[f][:e.n-1]
		v := e.probes[f][e.n-1:]
		sol := s.Eval(h, v)
		// Pack (w,d) into a single comparable pair per probe: keep w in
		// the fingerprint and d in the second slot via separate probes.
		if sol.W < 0 || sol.W > fpMaxW || sol.D < 0 || sol.D > fpMask {
			fp[f] = fpOverflow
			continue
		}
		fp[f] = ShiftCheck(sol.W, fpShift) | sol.D
	}
	return fp
}

// fpMayPrune is a necessary condition for a.Prunes(b): on every probe,
// a's w and d must not exceed b's. An fpOverflow probe is inconclusive
// and never rules pruning out.
func fpMayPrune(a, b [nFP]int64) bool {
	for f := 0; f < nFP; f++ {
		if a[f] == fpOverflow || b[f] == fpOverflow {
			continue
		}
		aw, ad := a[f]>>fpShift, a[f]&fpMask
		bw, bd := b[f]>>fpShift, b[f]&fpMask
		if aw > bw || ad > bd {
			return false
		}
	}
	return true
}

func (e *enum) dist(a, b int) Vec {
	key := [2]int{a, b}
	if a > b {
		key = [2]int{b, a}
	}
	if v, ok := e.distV[key]; ok {
		return v
	}
	ai, aj := e.Coords(a)
	bi, bj := e.Coords(b)
	v := gapVec(e.n, RankNode{I: int8(ai), J: int8(aj)}, RankNode{I: int8(bi), J: int8(bj)})
	e.distV[key] = v
	return v
}

func (e *enum) run() []int32 {
	if len(e.sinkNd) == 0 {
		return nil
	}
	full := 1<<len(e.sinkNd) - 1
	e.S = make([][][]int32, full+1)
	nn := e.n * e.n
	zero := make(Vec, 2*(e.n-1))
	for q := 1; q != 0; q = e.NextSubset(q) {
		Sq := make([][]int32, nn)
		M := make([][]int32, nn)
		inside := e.Inside(q)
		if q&(q-1) == 0 {
			s := bits.TrailingZeros(uint(q))
			sol := Solution{W: zero, D: []Vec{zero}}
			en := sent{sol: sol, kind: sBase, sink: int16(s)}
			en.fp = e.fingerprint(sol)
			e.arena = append(e.arena, en)
			M[e.sinkNd[s]] = []int32{int32(len(e.arena) - 1)}
		} else {
			e.mergeCandidates(q, inside, M)
		}
		e.extend(q, inside, M, Sq)
		e.S[q] = Sq
	}
	return e.S[full][e.rootNd]
}

// mergeCandidates fills M[v], the Lemma-1 filter of S_{v,q1} ⊕ S_{v,q\q1}
// over the skeleton's splits of q, for every inside node v.
func (e *enum) mergeCandidates(q int, inside []int, M [][]int32) {
	splits := e.Splits(q)
	var cand []sent
	for _, v := range inside {
		cand = cand[:0]
		for _, q1 := range splits {
			q2 := q &^ q1
			for _, i1 := range e.S[q1][v] {
				for _, i2 := range e.S[q2][v] {
					s1, s2 := &e.arena[i1], &e.arena[i2]
					sol := Solution{
						W: s1.sol.W.Add(s2.sol.W),
						D: append(append([]Vec(nil), s1.sol.D...), s2.sol.D...),
					}
					cand = append(cand, sent{sol: sol, kind: sMerge, a: i1, b: i2})
				}
			}
		}
		M[v] = e.filterPush(cand)
	}
}

// extend fills Sq[v], the Lemma-1 filter of M_{u,q} + dist(u, v) over the
// inside nodes u, for every inside node v, and derives the outside nodes'
// states by Lemma 3 projection.
func (e *enum) extend(q int, inside []int, M, Sq [][]int32) {
	var srcs []int
	for _, u := range inside {
		if len(M[u]) > 0 {
			srcs = append(srcs, u)
		}
	}
	var cand []sent
	for _, v := range inside {
		cand = cand[:0]
		for _, u := range srcs {
			g := e.dist(u, v)
			for _, idx := range M[u] {
				en := &e.arena[idx]
				if u == v {
					cand = append(cand, sent{sol: en.sol, kind: sExt, a: idx, b: int32(u)})
					continue
				}
				sol := Solution{W: en.sol.W.Add(g), D: make([]Vec, len(en.sol.D))}
				for r := range en.sol.D {
					sol.D[r] = en.sol.D[r].Add(g)
				}
				cand = append(cand, sent{sol: sol, kind: sExt, a: idx, b: int32(u)})
			}
		}
		Sq[v] = e.filterPush(cand)
	}
	// Lemma 3: outside nodes by projection.
	for _, pr := range e.Outside(q) {
		u, v := pr.Target, pr.Node
		g := e.dist(u, v)
		src := Sq[u]
		der := make([]int32, 0, len(src))
		for _, idx := range src {
			en := &e.arena[idx]
			sol := Solution{W: en.sol.W.Add(g), D: make([]Vec, len(en.sol.D))}
			for r := range en.sol.D {
				sol.D[r] = en.sol.D[r].Add(g)
			}
			ns := sent{sol: sol, kind: sExt, a: idx, b: int32(u)}
			ns.fp = e.fingerprint(sol)
			e.arena = append(e.arena, ns)
			der = append(der, int32(len(e.arena)-1))
		}
		Sq[v] = der
	}
}

// filterPush removes candidates pruned by another candidate (Lemma-1
// check with fingerprint pre-screen), pushes survivors into the arena and
// returns their indices.
func (e *enum) filterPush(cand []sent) []int32 {
	if len(cand) == 0 {
		return nil
	}
	for i := range cand {
		cand[i].fp = e.fingerprint(cand[i].sol)
	}
	// Sort by probe-0 wirelength then delay: cheap dominance order.
	// Stable on the probe-0 key alone: equal-fingerprint candidates keep
	// arena order, which the dedup pass relies on.
	slices.SortStableFunc(cand, func(a, b sent) int { return cmp.Compare(a.fp[0], b.fp[0]) })
	kept := make([]int, 0, 16)
	for i := range cand {
		pruned := false
		for _, k := range kept {
			if fpMayPrune(cand[k].fp, cand[i].fp) && cand[k].sol.Prunes(cand[i].sol) {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		// The newcomer may prune earlier kept entries.
		dst := kept[:0]
		for _, k := range kept {
			if fpMayPrune(cand[i].fp, cand[k].fp) && cand[i].sol.Prunes(cand[k].sol) {
				continue
			}
			dst = append(dst, k)
		}
		kept = append(dst, i)
	}
	out := make([]int32, 0, len(kept))
	for _, k := range kept {
		e.arena = append(e.arena, cand[k])
		out = append(out, int32(len(e.arena)-1))
	}
	return out
}

// reconstruct rebuilds the topology of final entry idx, rooted at the
// source rank node.
func (e *enum) reconstruct(idx int32) Topology {
	ri, rj := e.Coords(e.rootNd)
	t := Topology{
		Nodes:  []RankNode{{I: int8(ri), J: int8(rj), Sink: -1}},
		Parent: []int16{-1},
	}
	e.emit(idx, e.rootNd, 0, &t)
	return t
}

func (e *enum) emit(idx int32, v int, atNode int16, t *Topology) {
	en := e.arena[idx]
	switch en.kind {
	case sBase:
		nd := e.sinkNd[en.sink]
		i, j := e.Coords(nd)
		if t.Nodes[atNode].I == int8(i) && t.Nodes[atNode].J == int8(j) && t.Nodes[atNode].Sink < 0 && atNode != 0 {
			t.Nodes[atNode].Sink = int8(en.sink)
			return
		}
		t.Nodes = append(t.Nodes, RankNode{I: int8(i), J: int8(j), Sink: int8(en.sink)})
		t.Parent = append(t.Parent, atNode)
	case sExt:
		u := int(en.b)
		if u == v {
			e.emit(en.a, u, atNode, t)
			return
		}
		i, j := e.Coords(u)
		t.Nodes = append(t.Nodes, RankNode{I: int8(i), J: int8(j), Sink: -1})
		t.Parent = append(t.Parent, atNode)
		e.emit(en.a, u, int16(len(t.Nodes)-1), t)
	case sMerge:
		e.emit(en.a, v, atNode, t)
		e.emit(en.b, v, atNode, t)
	}
}

// spliceMonotone removes Steiner nodes with exactly one child whose
// removal does not change any gap coefficient (the two edges are monotone
// end to end), compacting the topology.
func (t *Topology) spliceMonotone(n int) {
	for {
		ch := make([][]int, len(t.Nodes))
		for i, p := range t.Parent {
			if p >= 0 {
				ch[p] = append(ch[p], i)
			}
		}
		victim := -1
		for i := 1; i < len(t.Nodes); i++ {
			if t.Nodes[i].Sink >= 0 {
				continue
			}
			if len(ch[i]) > 1 {
				continue
			}
			if len(ch[i]) == 0 {
				victim = i
				break
			}
			c := ch[i][0]
			p := int(t.Parent[i])
			g1 := gapVec(n, t.Nodes[p], t.Nodes[i])
			g2 := gapVec(n, t.Nodes[i], t.Nodes[c])
			gd := gapVec(n, t.Nodes[p], t.Nodes[c])
			if g1.Add(g2).Eq(gd) {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		ch2 := ch[victim]
		for _, c := range ch2 {
			t.Parent[c] = t.Parent[victim]
		}
		last := len(t.Nodes) - 1
		if victim != last {
			t.Nodes[victim] = t.Nodes[last]
			t.Parent[victim] = t.Parent[last]
			for i := range t.Parent {
				if int(t.Parent[i]) == last {
					t.Parent[i] = int16(victim)
				}
			}
		}
		t.Nodes = t.Nodes[:last]
		t.Parent = t.Parent[:last]
	}
}
