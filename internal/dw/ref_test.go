package dw

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// refRun is the sort-based reference DP: the all-pairs merge, the
// all-pairs extension and a sorting Pareto filter under the total order
// (w, d, kind, a, b). It fills c.arena from a fresh computation and
// returns the entry indices of the final frontier. TestFrontierMatchesReference
// requires run to produce the same arena, entry for entry.
func refRun(c *computation) []int32 {
	if c.m == 0 {
		c.arena = append(c.arena, ent{w: 0, d: 0, kind: kBase, sink: -1})
		return []int32{0}
	}
	full := (1 << c.m) - 1
	S := make([][][]int32, full+1)
	nn := c.grid.NumNodes()
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
		Sq := make([][]int32, nn)
		M := make([][]int32, nn)
		if bits.OnesCount(uint(q)) == 1 {
			s := bits.TrailingZeros(uint(q))
			M[c.sinkNd[s]] = []int32{c.push(ent{w: 0, d: 0, kind: kBase, sink: int16(s)})}
		} else {
			splits := append([]int(nil), c.splits(q)...)
			var cand []ent
			for _, v := range c.insideNodes(q) {
				cand = cand[:0]
				for _, q1 := range splits {
					for _, e1 := range S[q1][v] {
						for _, e2 := range S[q&^q1][v] {
							cand = append(cand, ent{
								w: c.arena[e1].w + c.arena[e2].w, d: geom.Max64(c.arena[e1].d, c.arena[e2].d),
								kind: kMerge, a: e1, b: e2,
							})
						}
					}
				}
				M[v] = refFilterPush(c, cand)
			}
		}
		inside := c.insideNodes(q)
		var cand []ent
		for _, v := range inside {
			cand = cand[:0]
			for _, u := range inside {
				dist := c.grid.Dist(u, v)
				for _, e := range M[u] {
					cand = append(cand, ent{
						w: c.arena[e].w + dist, d: c.arena[e].d + dist,
						kind: kExt, a: e, b: int32(u),
					})
				}
			}
			Sq[v] = refFilterPush(c, cand)
		}
		if c.opts.ProjectOutside {
			ilo, jlo, ihi, jhi := c.bbox(q)
			for _, v := range c.nodes {
				i, j := c.grid.Coords(v)
				if i >= ilo && i <= ihi && j >= jlo && j <= jhi {
					continue
				}
				u := c.grid.Node(clamp(i, ilo, ihi), clamp(j, jlo, jhi))
				dist := c.grid.Dist(u, v)
				for _, e := range Sq[u] {
					Sq[v] = append(Sq[v], c.push(ent{
						w: c.arena[e].w + dist, d: c.arena[e].d + dist,
						kind: kExt, a: e, b: int32(u),
					}))
				}
			}
		}
		S[q] = Sq
	}
	return S[full][c.rootNd]
}

// refFilterPush sorts the candidates by the total order (w, d, kind, a, b)
// and pushes the Pareto survivors, the first of each (w, d), in order.
func refFilterPush(c *computation, cand []ent) []int32 {
	slices.SortFunc(cand, func(x, y ent) int {
		switch {
		case x.w != y.w:
			return cmpInt(x.w, y.w)
		case x.d != y.d:
			return cmpInt(x.d, y.d)
		case x.kind != y.kind:
			return cmpInt(x.kind, y.kind)
		case x.a != y.a:
			return cmpInt(x.a, y.a)
		}
		return cmpInt(x.b, y.b)
	})
	var out []int32
	bestD := int64(1<<63 - 1)
	for _, e := range cand {
		if e.d < bestD {
			out = append(out, c.push(e))
			bestD = e.d
		}
	}
	return out
}

func cmpInt[T int64 | int32 | entKind](x, y T) int {
	if x < y {
		return -1
	}
	return 1
}

// allOptions lists every combination of the three pruning lemmas.
func allOptions() []Options {
	var out []Options
	for mask := 0; mask < 8; mask++ {
		out = append(out, Options{PruneCorners: mask&1 != 0, ProjectOutside: mask&2 != 0, BoundarySplits: mask&4 != 0})
	}
	return out
}

// checkAgainstReference runs the DP and the reference on the same net and
// fails unless their arenas and frontiers are identical.
func checkAgainstReference(t *testing.T, net tree.Net, opts Options) {
	t.Helper()
	got, err := newComputation(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := got.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newComputation(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantFr := refRun(want)
	if !slices.Equal(got.arena, want.arena) {
		for i := range min(len(got.arena), len(want.arena)) {
			if got.arena[i] != want.arena[i] {
				t.Fatalf("net %v opts %+v: arena differs at entry %d of %d/%d: got %+v, want %+v",
					net.Pins, opts, i, len(got.arena), len(want.arena), got.arena[i], want.arena[i])
			}
		}
		t.Fatalf("net %v opts %+v: arena length %d, want %d", net.Pins, opts, len(got.arena), len(want.arena))
	}
	gotFr := make([]int32, fr.n)
	for k := range gotFr {
		gotFr[k] = fr.off + int32(k)
	}
	if !slices.Equal(gotFr, wantFr) {
		t.Fatalf("net %v opts %+v: frontier entries %v, want %v", net.Pins, opts, gotFr, wantFr)
	}
}

// TestFrontierMatchesReference asserts that the sort-free DP builds the
// same arena, entry for entry, and the same frontier as the sort-based
// reference, across degrees 2–9 and spans from 4 (ties, collinear and
// duplicate pins) to 4000, under every pruning combination up to degree 7
// and the defaults at degrees 8–9.
func TestFrontierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1717))
	perCell := 4
	if testing.Short() {
		perCell = 2
	}
	for deg := 2; deg <= 9; deg++ {
		opts := allOptions()
		nets := perCell
		if deg >= 8 {
			opts = []Options{DefaultOptions()}
			nets = max(1, perCell/2)
		}
		for _, span := range []int64{4, 12, 100, 4000} {
			for k := 0; k < nets; k++ {
				net := randNet(rng, deg, span)
				for _, o := range opts {
					checkAgainstReference(t, net, o)
				}
			}
		}
	}
}

// FuzzFrontierReference decodes a pruning mask and up to 9 pins from the
// input (one byte per coordinate) and checks the DP against the
// reference under that mask.
func FuzzFrontierReference(f *testing.F) {
	f.Add([]byte{7, 0, 0, 5, 7})
	f.Add([]byte{7, 0, 0, 10, 1, 10, 255, 20, 0})
	f.Add([]byte{0, 3, 3, 3, 3, 0, 0, 3, 0, 0, 3})
	f.Add([]byte{5, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3})
	f.Add([]byte{6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{3, 9, 9, 0, 0, 18, 18, 0, 18, 18, 0, 9, 0, 0, 9, 18, 9, 9, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		mask := data[0]
		opts := Options{PruneCorners: mask&1 != 0, ProjectOutside: mask&2 != 0, BoundarySplits: mask&4 != 0}
		data = data[1:]
		n := min(len(data)/2, 9)
		pins := make([]geom.Point, n)
		for i := range pins {
			pins[i] = geom.Pt(int64(data[2*i]), int64(data[2*i+1]))
		}
		checkAgainstReference(t, tree.Net{Pins: pins}, opts)
	})
}
