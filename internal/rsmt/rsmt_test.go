package rsmt

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

func TestMSTValidAndMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		net := randNet(rng, n, 100)
		m := MST(net)
		if err := m.Validate(net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if m.Len() != n {
			t.Fatalf("trial %d: MST has %d nodes, want %d (no Steiner points)", trial, m.Len(), n)
		}
		// MST length is minimal among sampled spanning trees: random
		// parent assignments never beat it.
		w := m.Wirelength()
		for s := 0; s < 20; s++ {
			rt := tree.New(net.Source(), 0)
			nodes := []int{rt.Root}
			perm := rng.Perm(n - 1)
			for _, pi := range perm {
				parent := nodes[rng.Intn(len(nodes))]
				nodes = append(nodes, rt.Add(net.Pins[pi+1], pi+1, parent))
			}
			if rt.Wirelength() < w {
				t.Fatalf("trial %d: random spanning tree beats MST: %d < %d",
					trial, rt.Wirelength(), w)
			}
		}
	}
}

func TestTreeExactSmallDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5) // 2..6 <= ExactDegree
		net := randNet(rng, n, 80)
		got := Tree(net)
		if err := got.Validate(net); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sols, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.Wirelength() != sols[0].W {
			t.Fatalf("trial %d: wirelength %d, optimal %d (net %v)",
				trial, got.Wirelength(), sols[0].W, net.Pins)
		}
	}
}

func TestTreeHeuristicQuality(t *testing.T) {
	// The heuristic tree must be valid, beat or match the plain MST, and
	// respect the HPWL lower bound.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 20, 40, 80} {
		for trial := 0; trial < 5; trial++ {
			net := randNet(rng, n, 400)
			got := Tree(net)
			if err := got.Validate(net); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			mst := MST(net).Wirelength()
			if w := got.Wirelength(); w > mst {
				t.Fatalf("n=%d trial %d: heuristic %d worse than MST %d", n, trial, w, mst)
			}
			if w := got.Wirelength(); w < geom.HPWL(net.Pins...) {
				t.Fatalf("n=%d trial %d: wirelength %d below HPWL bound", n, trial, w)
			}
		}
	}
}

func TestOneSteinerImprovesCross(t *testing.T) {
	// Four pins in a cross: the MST needs 3 edges of length 2 each (6),
	// the Steiner tree uses the centre (total 4). Source at a tip.
	net := tree.NewNet(geom.Pt(0, 1), geom.Pt(2, 1), geom.Pt(1, 0), geom.Pt(1, 2))
	got := oneSteiner(net)
	if err := got.Validate(net); err != nil {
		t.Fatal(err)
	}
	if w := got.Wirelength(); w != 4 {
		t.Fatalf("cross wirelength = %d, want 4", w)
	}
}

func TestTreeTrivialDegrees(t *testing.T) {
	single := tree.Net{Pins: []geom.Point{geom.Pt(5, 5)}}
	if got := Tree(single); got.Len() != 1 || got.Wirelength() != 0 {
		t.Fatal("degree-1 tree wrong")
	}
	pair := tree.NewNet(geom.Pt(0, 0), geom.Pt(3, 4))
	got := Tree(pair)
	if err := got.Validate(pair); err != nil {
		t.Fatal(err)
	}
	if got.Wirelength() != 7 {
		t.Fatalf("degree-2 wirelength = %d", got.Wirelength())
	}
}

func TestWirelengthMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := randNet(rng, 6, 50)
	if Wirelength(net) != Tree(net).Wirelength() {
		t.Fatal("Wirelength diverges from Tree")
	}
}

// refOneSteiner is iterated 1-Steiner with a fresh Prim per candidate,
// the reference for oneSteiner's vertex-insertion MST lengths.
func refOneSteiner(net tree.Net) *tree.Tree {
	g := hanan.NewGrid(net.Pins)
	pinSet := map[geom.Point]bool{}
	for _, p := range net.Pins {
		pinSet[p] = true
	}
	var candidates []geom.Point
	for idx := 0; idx < g.NumNodes(); idx++ {
		if p := g.Point(idx); !pinSet[p] {
			candidates = append(candidates, p)
		}
	}
	steiner := []geom.Point{}
	base := mstLength(net.Pins, steiner)
	for round := 0; round < net.Degree(); round++ {
		bestGain := int64(0)
		bestIdx := -1
		for ci, c := range candidates {
			l := mstLength(net.Pins, append(steiner, c))
			if gain := base - l; gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		steiner = append(steiner, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		base -= bestGain
	}
	t := mstWithSteiner(net, steiner)
	refine(t)
	return t
}

// mstLength returns the rectilinear MST length over pins plus Steiner
// points by Prim's algorithm, O(k²).
func mstLength(pins []geom.Point, steiner []geom.Point) int64 {
	pts := append(append([]geom.Point(nil), pins...), steiner...)
	k := len(pts)
	const inf = int64(1) << 62
	dist := make([]int64, k)
	inT := make([]bool, k)
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
	}
	inT[0] = true
	var total int64
	for added := 1; added < k; added++ {
		best, bestD := -1, inf
		for i := 1; i < k; i++ {
			if !inT[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		total += bestD
		inT[best] = true
		for i := 1; i < k; i++ {
			if !inT[i] {
				if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
}

func TestMSTInsertionMatchesPrim(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		net := randNet(rng, 1+rng.Intn(20), []int64{5, 60, 1000}[trial%3])
		var m mst
		m.build(net.Pins)
		if want := mstLength(net.Pins, nil); m.total != want {
			t.Fatalf("trial %d: MST %d, Prim %d", trial, m.total, want)
		}
		for k := 0; k < 10; k++ {
			c := geom.Pt(rng.Int63n(1000), rng.Int63n(1000))
			if got, want := m.withPoint(net.Pins, c), mstLength(net.Pins, []geom.Point{c}); got != want {
				t.Fatalf("trial %d: insertion of %v gives %d, Prim %d (pins %v)", trial, c, got, want, net.Pins)
			}
		}
	}
}

// TestOneSteinerMatchesReference asserts that the vertex-insertion
// 1-Steiner picks the same Steiner points, so builds the same tree, as
// the per-candidate Prim reference.
func TestOneSteinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials, maxPins := 120, 38
	if testing.Short() {
		trials, maxPins = 40, 20
	}
	for trial := 0; trial < trials; trial++ {
		n := 3 + rng.Intn(maxPins-2)
		net := randNet(rng, n, []int64{8, 100, 5000}[trial%3])
		got, want := oneSteiner(net), refOneSteiner(net)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d pins): trees differ\n got: %+v\nwant: %+v", trial, n, got, want)
		}
	}
}
