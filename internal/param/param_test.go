package param

import (
	"math/rand"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

func TestVecOps(t *testing.T) {
	a := Vec{1, 2, 0, 3}
	b := Vec{0, 2, 1, 3}
	if got := a.Add(b); !got.Eq(Vec{1, 4, 1, 6}) {
		t.Fatalf("Add = %v", got)
	}
	if a.LE(b) || !(Vec{0, 1, 0, 3}).LE(a) {
		t.Fatal("LE wrong")
	}
	// Eval: n-1 = 2 horizontal gaps (h), 2 vertical (v).
	h := []int64{10, 100}
	v := []int64{1000, 10000}
	if got := a.Eval(h, v); got != 10+200+30000 {
		t.Fatalf("Eval = %d", got)
	}
}

func TestSolutionPrunes(t *testing.T) {
	s1 := Solution{W: Vec{1, 0}, D: []Vec{{1, 0}}}
	s2 := Solution{W: Vec{1, 1}, D: []Vec{{1, 1}}}
	if !s1.Prunes(s2) {
		t.Error("s1 should prune s2")
	}
	if s2.Prunes(s1) {
		t.Error("s2 must not prune s1")
	}
	// Incomparable W.
	s3 := Solution{W: Vec{0, 2}, D: []Vec{{0, 2}}}
	if s1.Prunes(s3) || s3.Prunes(s1) {
		t.Error("incomparable solutions must not prune each other")
	}
	// Row matching: s4 has two rows both dominated by s5's single row.
	s4 := Solution{W: Vec{2, 2}, D: []Vec{{2, 0}, {0, 2}}}
	s5 := Solution{W: Vec{2, 2}, D: []Vec{{2, 2}}}
	if !s4.Prunes(s5) {
		t.Error("s4's rows are all below s5's row; s4 should prune s5")
	}
	if s5.Prunes(s4) {
		t.Error("s5's row is not below any single row of s4 in both coords")
	}
}

func TestPrunesImpliesDominanceEverywhere(t *testing.T) {
	// Property: when Prunes holds, evaluation is dominated on random
	// nonnegative gap assignments.
	rng := rand.New(rand.NewSource(21))
	dim := 6
	randSol := func(rows int) Solution {
		s := Solution{W: make(Vec, dim)}
		for k := range s.W {
			s.W[k] = int16(rng.Intn(4))
		}
		for r := 0; r < rows; r++ {
			row := make(Vec, dim)
			for k := range row {
				row[k] = int16(rng.Intn(4))
			}
			s.D = append(s.D, row)
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		a := randSol(1 + rng.Intn(3))
		b := randSol(1 + rng.Intn(3))
		if !a.Prunes(b) {
			continue
		}
		for probe := 0; probe < 20; probe++ {
			h := make([]int64, dim/2)
			v := make([]int64, dim/2)
			for k := range h {
				h[k] = rng.Int63n(50)
				v[k] = rng.Int63n(50)
			}
			ea, eb := a.Eval(h, v), b.Eval(h, v)
			if ea.W > eb.W || ea.D > eb.D {
				t.Fatalf("Prunes violated: %v vs %v at h=%v v=%v: %v !<= %v", a, b, h, v, ea, eb)
			}
		}
	}
}

// TestEnumeratedClassesIrredundant pins the invariant that keeps lookup
// table generation free of a separate dominance-pruning pass: in every
// canonical pattern's enumerated class, no solution is Prunes-dominated
// by an earlier one, so the symbolic DP's in-flight Lemma-1 filter has
// already removed every redundant topology.
func TestEnumeratedClassesIrredundant(t *testing.T) {
	maxDegree := 6
	if testing.Short() {
		maxDegree = 5
	}
	for n := 2; n <= maxDegree; n++ {
		for _, p := range hanan.CanonicalPatterns(n) {
			topos, err := EnumeratePattern(p)
			if err != nil {
				t.Fatal(err)
			}
			sols := Solutions(topos, n)
			for j := range sols {
				for i := 0; i < j; i++ {
					if sols[i].Prunes(sols[j]) {
						t.Fatalf("degree %d pattern %v: solution %d is pruned by earlier solution %d", n, p, j, i)
					}
				}
			}
		}
	}
}

func randomGeneralNet(rng *rand.Rand, n int, span int64) tree.Net {
	used := map[int64]bool{}
	xs := make([]int64, 0, n)
	for len(xs) < n {
		x := rng.Int63n(span)
		if !used[x] {
			used[x] = true
			xs = append(xs, x)
		}
	}
	used = map[int64]bool{}
	ys := make([]int64, 0, n)
	for len(ys) < n {
		y := rng.Int63n(span)
		if !used[y] {
			used[y] = true
			ys = append(ys, y)
		}
	}
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(xs[i], ys[i])
	}
	return tree.Net{Pins: pins}
}

// frontierViaTopologies computes the exact frontier of a net by symbolic
// enumeration of its own pattern (identity transform), instantiation and
// concrete Pareto filtering.
func frontierViaTopologies(t *testing.T, net tree.Net, canonical bool) []pareto.Sol {
	t.Helper()
	r := hanan.RanksOf(net)
	pat, tf := r.Pattern, hanan.Transform{}
	if canonical {
		pat, tf = hanan.Canonical(r.Pattern)
	}
	topos, err := EnumeratePattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	var sols []pareto.Sol
	for _, topo := range topos {
		tr, err := topo.Instantiate(r, tf)
		if err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		if err := tr.Validate(net); err != nil {
			t.Fatalf("instantiated tree invalid: %v", err)
		}
		sols = append(sols, tr.Sol())
	}
	return pareto.Filter(sols)
}

func TestEnumerateMatchesDWIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3) // 3..5
		net := randomGeneralNet(rng, n, 50)
		got := frontierViaTopologies(t, net, false)
		want := dwFrontier(t, net)
		assertSame(t, net, got, want)
	}
}

func TestEnumerateMatchesDWCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		net := randomGeneralNet(rng, n, 50)
		got := frontierViaTopologies(t, net, true)
		want := dwFrontier(t, net)
		assertSame(t, net, got, want)
	}
}

func TestEnumerateTiedCoordinates(t *testing.T) {
	// Nets with shared coordinates exercise zero gap lengths.
	nets := []tree.Net{
		tree.NewNet(geom.Pt(0, 0), geom.Pt(0, 10), geom.Pt(10, 0)),
		tree.NewNet(geom.Pt(5, 5), geom.Pt(5, 0), geom.Pt(0, 5), geom.Pt(10, 5)),
	}
	for _, net := range nets {
		got := frontierViaTopologies(t, net, true)
		want := dwFrontier(t, net)
		assertSame(t, net, got, want)
	}
}

func assertSame(t *testing.T, net tree.Net, got, want []pareto.Sol) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("net %v: frontier %v, want %v", net.Pins, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("net %v: frontier %v, want %v", net.Pins, got, want)
		}
	}
}

func TestTopologySolutionMatchesInstantiation(t *testing.T) {
	// The symbolic (W, D) of a topology evaluated on the net's gaps must
	// equal the concrete tree objectives.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(3)
		net := randomGeneralNet(rng, n, 40)
		r := hanan.RanksOf(net)
		topos, err := EnumeratePattern(r.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			sym := topo.Solution(n).Eval(r.H, r.V)
			tr, err := topo.Instantiate(r, hanan.Transform{})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Sol() != sym {
				t.Fatalf("symbolic %v != concrete %v for topology %v", sym, tr.Sol(), topo)
			}
		}
	}
}

func TestEnumerateDegree2(t *testing.T) {
	pat := hanan.Pattern{N: 2, Perm: []uint8{0, 1}, Src: 0}
	topos, err := EnumeratePattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	if len(topos) != 1 {
		t.Fatalf("degree-2 pattern has %d topologies, want 1", len(topos))
	}
}

func TestEnumerateRejectsInvalid(t *testing.T) {
	if _, err := EnumeratePattern(hanan.Pattern{N: 3, Perm: []uint8{0, 0, 1}, Src: 0}); err == nil {
		t.Fatal("invalid pattern accepted")
	}
	if _, err := EnumeratePattern(hanan.Pattern{N: 1, Perm: []uint8{0}, Src: 0}); err == nil {
		t.Fatal("degree-1 pattern accepted")
	}
	big := hanan.Pattern{N: 13, Perm: make([]uint8, 13), Src: 0}
	for i := range big.Perm {
		big.Perm[i] = uint8(i)
	}
	if _, err := EnumeratePattern(big); err == nil {
		t.Fatal("oversized pattern accepted")
	}
}

func TestCanonEqualForRelabeledTopology(t *testing.T) {
	a := Topology{
		Nodes:  []RankNode{{0, 0, -1}, {1, 1, 0}, {2, 2, 1}},
		Parent: []int16{-1, 0, 1},
	}
	// Same tree, children added in different order.
	b := Topology{
		Nodes:  []RankNode{{0, 0, -1}, {2, 2, 1}, {1, 1, 0}},
		Parent: []int16{-1, 2, 0},
	}
	if a.Canon() != b.Canon() {
		t.Fatal("Canon differs for relabelled topologies")
	}
}

func dwFrontier(t *testing.T, net tree.Net) []pareto.Sol {
	t.Helper()
	sols, err := dwSols(net)
	if err != nil {
		t.Fatal(err)
	}
	return sols
}
