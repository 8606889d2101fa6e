package groute

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

func mustGrid(t *testing.T, nx, ny int, cw, ch int64, cap int) *Grid {
	t.Helper()
	g, err := NewGrid(nx, ny, cw, ch, cap)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5, 10, 10, 1); err == nil {
		t.Fatal("zero-width grid accepted")
	}
	if _, err := NewGrid(5, 5, 0, 10, 1); err == nil {
		t.Fatal("zero cell accepted")
	}
	if _, err := NewGrid(5, 5, 10, 10, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestCellOfClamps(t *testing.T) {
	g := mustGrid(t, 4, 4, 10, 10, 1)
	if x, y := g.CellOf(geom.Pt(-5, 500)); x != 0 || y != 3 {
		t.Fatalf("CellOf = %d,%d", x, y)
	}
	if x, y := g.CellOf(geom.Pt(25, 5)); x != 2 || y != 0 {
		t.Fatalf("CellOf = %d,%d", x, y)
	}
}

func TestEmbedStraightWire(t *testing.T) {
	g := mustGrid(t, 5, 5, 10, 10, 1)
	// Horizontal wire across 3 cells at row 0.
	net := tree.NewNet(geom.Pt(5, 5), geom.Pt(35, 5))
	tr := tree.Star(net)
	g.Add(tr)
	// Cells 0->3 in row 0: crossings 0-1, 1-2, 2-3.
	used := 0
	for _, u := range g.hUse {
		used += u
	}
	if used != 3 {
		t.Fatalf("horizontal crossings = %d, want 3", used)
	}
	for _, u := range g.vUse {
		if u != 0 {
			t.Fatal("vertical usage on a horizontal wire")
		}
	}
	g.Remove(tr)
	if g.MaxUse() != 0 {
		t.Fatal("Remove did not restore usage")
	}
}

func TestEmbedLShape(t *testing.T) {
	g := mustGrid(t, 5, 5, 10, 10, 0)
	net := tree.NewNet(geom.Pt(5, 5), geom.Pt(25, 35))
	g.Add(tree.Star(net))
	// L: horizontal row 0 cells 0->2 (2 crossings), vertical column 2
	// rows 0->3 (3 crossings). With cap 0 every crossing overflows.
	if g.Overflow() != 5 {
		t.Fatalf("overflow = %d, want 5", g.Overflow())
	}
}

func TestAddRemoveRandomRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := mustGrid(t, 8, 8, 100, 100, 2)
	var trees []*tree.Tree
	for i := 0; i < 20; i++ {
		pins := make([]geom.Point, 2+rng.Intn(5))
		for j := range pins {
			pins[j] = geom.Pt(rng.Int63n(800), rng.Int63n(800))
		}
		tr := tree.Star(tree.Net{Pins: pins})
		trees = append(trees, tr)
		g.Add(tr)
	}
	for _, tr := range trees {
		g.Remove(tr)
	}
	if g.MaxUse() != 0 || g.Overflow() != 0 {
		t.Fatalf("usage not restored: max %d overflow %d", g.MaxUse(), g.Overflow())
	}
}

// hotspotNets builds nets whose cheap candidates all cross one column,
// while alternative Pareto candidates avoid it.
func hotspotNets(t *testing.T, count int) []NetCandidates {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	var nets []NetCandidates
	for len(nets) < count {
		// Driver east, sinks west spread: rich frontier nets.
		src := geom.Pt(700+rng.Int63n(80), 100+rng.Int63n(600))
		var sinks []geom.Point
		for j := 0; j < 4; j++ {
			sinks = append(sinks, geom.Pt(rng.Int63n(300), 100+rng.Int63n(600)))
		}
		net := tree.NewNet(src, sinks...)
		cands, err := dw.FrontierContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) < 2 {
			continue // the selection tests need a real tradeoff
		}
		nets = append(nets, NetCandidates{Cands: cands})
	}
	return nets
}

func TestSelectReducesOverflowWithCandidates(t *testing.T) {
	nets := hotspotNets(t, 15)
	// Selection restricted to the single cheapest candidate.
	gSingle := mustGrid(t, 8, 8, 100, 100, 3)
	single := make([]NetCandidates, len(nets))
	for i, nc := range nets {
		single[i] = NetCandidates{Cands: nc.Cands[:1]}
	}
	_, resSingle, err := Select(gSingle, single, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Full Pareto selection.
	gFull := mustGrid(t, 8, 8, 100, 100, 3)
	_, resFull, err := Select(gFull, nets, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Overflow > resSingle.Overflow {
		t.Fatalf("candidate selection increased overflow: %d vs %d",
			resFull.Overflow, resSingle.Overflow)
	}
}

func TestSelectRespectsBudgets(t *testing.T) {
	nets := hotspotNets(t, 6)
	for i := range nets {
		// Budget = fastest candidate's delay: only it qualifies.
		fastest := nets[i].Cands[len(nets[i].Cands)-1]
		nets[i].Budget = fastest.Sol.D
	}
	g := mustGrid(t, 8, 8, 100, 100, 100)
	choice, res, err := Select(g, nets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetMiss != 0 {
		t.Fatalf("budget misses = %d", res.BudgetMiss)
	}
	for i, ci := range choice {
		if nets[i].Cands[ci].Sol.D > nets[i].Budget {
			t.Fatalf("net %d: chosen delay %d over budget %d",
				i, nets[i].Cands[ci].Sol.D, nets[i].Budget)
		}
	}
}

func TestSelectImpossibleBudgetFallsBack(t *testing.T) {
	nets := hotspotNets(t, 3)
	for i := range nets {
		nets[i].Budget = 1 // unmeetable
	}
	g := mustGrid(t, 8, 8, 100, 100, 100)
	choice, res, err := Select(g, nets, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetMiss != len(nets) {
		t.Fatalf("budget misses = %d, want %d", res.BudgetMiss, len(nets))
	}
	for i, ci := range choice {
		if ci != len(nets[i].Cands)-1 {
			t.Fatalf("net %d: fallback was not the fastest candidate", i)
		}
	}
}

func TestSelectRejectsEmptyCandidates(t *testing.T) {
	g := mustGrid(t, 4, 4, 10, 10, 1)
	if _, _, err := Select(g, []NetCandidates{{}}, 1); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

func TestSelectAccounting(t *testing.T) {
	nets := hotspotNets(t, 5)
	g := mustGrid(t, 8, 8, 100, 100, 3)
	choice, res, err := Select(g, nets, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wire int64
	for i, ci := range choice {
		wire += nets[i].Cands[ci].Sol.W
	}
	if wire != res.TotalWire {
		t.Fatalf("TotalWire %d != recomputed %d", res.TotalWire, wire)
	}
	if res.Overflow != g.Overflow() || res.MaxUse != g.MaxUse() {
		t.Fatal("result does not match final grid state")
	}
	if res.Passes < 1 {
		t.Fatal("no passes recorded")
	}
}

func TestHeatmap(t *testing.T) {
	g := mustGrid(t, 4, 4, 10, 10, 2)
	net := tree.NewNet(geom.Pt(5, 5), geom.Pt(35, 35))
	g.Add(tree.Star(net))
	out := g.Heatmap()
	if !strings.Contains(out, "4x4") || !strings.Contains(out, "capacity 2") {
		t.Fatalf("heatmap = %q", out)
	}
	if len(strings.Split(out, "\n")) < 6 {
		t.Fatalf("heatmap too short:\n%s", out)
	}
	// Zero-capacity grids render without dividing by zero.
	g0 := mustGrid(t, 3, 3, 10, 10, 0)
	g0.Add(tree.Star(net))
	if out := g0.Heatmap(); !strings.Contains(out, "@") {
		t.Fatalf("zero-cap heatmap = %q", out)
	}
}
