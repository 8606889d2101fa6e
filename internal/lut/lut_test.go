package lut

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

func TestGenerateAndQueryMatchesDW(t *testing.T) {
	tab := New()
	for d := 2; d <= 5; d++ {
		if err := tab.Generate(d, 2); err != nil {
			t.Fatal(err)
		}
		if !tab.Covers(d) {
			t.Fatalf("degree %d not covered after Generate", d)
		}
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4) // 2..5
		net := randNet(rng, n, 60)
		items, ok, err := tab.Query(net)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("trial %d: query missed covered degree %d", trial, n)
		}
		want, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(want) {
			t.Fatalf("trial %d net %v: LUT frontier %v, want %v", trial, net.Pins, sols(items), want)
		}
		for i := range want {
			if items[i].Sol != want[i] {
				t.Fatalf("trial %d net %v: LUT frontier %v, want %v", trial, net.Pins, sols(items), want)
			}
			if err := items[i].Val.Validate(net); err != nil {
				t.Fatalf("trial %d: invalid tree: %v", trial, err)
			}
			if items[i].Val.Sol() != items[i].Sol {
				t.Fatalf("trial %d: tree objective mismatch", trial)
			}
		}
	}
}

func sols(items []pareto.Item[*tree.Tree]) []pareto.Sol {
	out := make([]pareto.Sol, len(items))
	for i, it := range items {
		out[i] = it.Sol
	}
	return out
}

func TestQueryUncoveredDegree(t *testing.T) {
	tab := New()
	if err := tab.Generate(3, 1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	_, ok, err := tab.Query(randNet(rng, 6, 50))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("query claimed coverage of an ungenerated degree")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := New()
	if err := tab.Generate(4, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.plut")
	if err := tab.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if !loaded.Covers(4) {
		t.Fatal("loaded table does not cover degree 4")
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		net := randNet(rng, 4, 40)
		a, okA, errA := tab.Query(net)
		b, okB, errB := loaded.Query(net)
		if errA != nil || errB != nil || okA != okB {
			t.Fatalf("query divergence: %v %v %v %v", okA, okB, errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("frontier size divergence: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i].Sol != b[i].Sol {
				t.Fatalf("frontier divergence at %d", i)
			}
		}
	}
}

func TestGenerateSampleDoesNotMarkCovered(t *testing.T) {
	tab := New()
	if err := tab.GenerateSample(6, 2, 5); err != nil {
		t.Fatal(err)
	}
	if tab.Covers(6) {
		t.Fatal("sampled degree must not be marked covered")
	}
	st := tab.Stats()
	if len(st) != 1 || st[0].NumIndex != 5 || st[0].SampledOf == 0 {
		t.Fatalf("sample stats = %+v", st)
	}
}

func TestStats(t *testing.T) {
	tab := New()
	if err := tab.Generate(4, 1); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if len(st) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Degree != 4 || st[0].NumIndex == 0 || st[0].TotalTopo == 0 {
		t.Fatalf("stats = %+v", st[0])
	}
	if st[0].AvgTopo() <= 0 {
		t.Fatalf("AvgTopo = %v", st[0].AvgTopo())
	}
}

func TestDefaultTableSingleton(t *testing.T) {
	a := Default()
	b := Default()
	if a != b {
		t.Fatal("Default not a singleton")
	}
	for d := 2; d <= DefaultEagerDegree; d++ {
		if !a.Covers(d) {
			t.Fatalf("default table does not cover degree %d", d)
		}
	}
}

func TestGenerateRejectsTinyDegree(t *testing.T) {
	if err := New().Generate(1, 1); err == nil {
		t.Fatal("degree-1 generation accepted")
	}
}

func TestQueryTrivialNets(t *testing.T) {
	tab := Default()
	// Degree 1: below any table; ok=false.
	if _, ok, err := tab.Query(tree.Net{Pins: []geom.Point{geom.Pt(1, 1)}}); err != nil || ok {
		t.Fatalf("degree-1 query: ok=%v err=%v", ok, err)
	}
	// Degree 2.
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(3, 4))
	items, ok, err := tab.Query(net)
	if err != nil || !ok {
		t.Fatalf("degree-2 query: ok=%v err=%v", ok, err)
	}
	if len(items) != 1 || items[0].Sol != (pareto.Sol{W: 7, D: 7}) {
		t.Fatalf("degree-2 frontier = %v", sols(items))
	}
}

func TestDegree6MatchesDW(t *testing.T) {
	if testing.Short() {
		t.Skip("degree-6 table generation takes seconds")
	}
	tab := New()
	if err := tab.Generate(6, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 25; trial++ {
		net := randNet(rng, 6, 120)
		items, ok, err := tab.Query(net)
		if err != nil || !ok {
			t.Fatalf("trial %d: ok=%v err=%v", trial, ok, err)
		}
		want, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(want) {
			t.Fatalf("trial %d: LUT %v, DW %v", trial, sols(items), want)
		}
		for i := range want {
			if items[i].Sol != want[i] {
				t.Fatalf("trial %d: LUT %v, DW %v", trial, sols(items), want)
			}
		}
	}
}
