package core

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/rsma"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

func TestRouteSmallIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(6) // 2..7
		net := randNet(rng, n, 100)
		items, err := RouteContext(context.Background(), net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(want) {
			t.Fatalf("trial %d: %d items, want %d", trial, len(items), len(want))
		}
		for i := range want {
			if items[i].Sol != want[i] {
				t.Fatalf("trial %d: item %d = %v, want %v", trial, i, items[i].Sol, want[i])
			}
			if err := items[i].Val.Validate(net); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRouteLargeValidAndCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	for _, n := range []int{12, 20, 30} {
		net := randNet(rng, n, 400)
		items, err := RouteContext(context.Background(), net, Options{Lambda: 7})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Fatal("empty result")
		}
		var sols []pareto.Sol
		for _, it := range items {
			sols = append(sols, it.Sol)
			if err := it.Val.Validate(net); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if it.Val.Sol() != it.Sol {
				t.Fatalf("n=%d: objective mismatch", n)
			}
		}
		if !pareto.IsFrontier(sols) {
			t.Fatalf("n=%d: not canonical: %v", n, sols)
		}
	}
}

func TestRouteLargeCoversBothEnds(t *testing.T) {
	// The local search must reach near the RSMT wirelength on one end and
	// strictly improve the RSMT delay on the other for spread-out nets.
	rng := rand.New(rand.NewSource(113))
	improvedDelay := 0
	trials := 10
	for trial := 0; trial < trials; trial++ {
		net := randNet(rng, 16, 500)
		items, err := RouteContext(context.Background(), net, Options{Lambda: 7})
		if err != nil {
			t.Fatal(err)
		}
		smtW := rsmt.Tree(net).Wirelength()
		if items[0].Sol.W > smtW {
			t.Fatalf("trial %d: best wirelength %d worse than seed RSMT %d",
				trial, items[0].Sol.W, smtW)
		}
		smtD := rsmt.Tree(net).MaxDelay()
		if items[len(items)-1].Sol.D < smtD {
			improvedDelay++
		}
		// Delay can never beat the shortest-path bound.
		if items[len(items)-1].Sol.D < rsma.MinDelay(net) {
			t.Fatalf("trial %d: delay below the SPT lower bound", trial)
		}
	}
	if improvedDelay == 0 {
		t.Fatal("local search never improved the RSMT delay across trials")
	}
}

func TestRouteRandomSelectionAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	net := randNet(rng, 20, 400)
	a, err := RouteContext(context.Background(), net, Options{Lambda: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteContext(context.Background(), net, Options{Lambda: 7, RandomSelection: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]pareto.Item[*tree.Tree]{a, b} {
		for _, it := range items {
			if err := it.Val.Validate(net); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRouteNoRefineAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	net := randNet(rng, 18, 300)
	items, err := RouteContext(context.Background(), net, Options{Lambda: 7, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := it.Val.Validate(net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouteMoreIterationsNeverWorse(t *testing.T) {
	// Monotonicity: the Pareto set only grows tighter with iterations.
	rng := rand.New(rand.NewSource(116))
	net := randNet(rng, 24, 400)
	few, err := RouteContext(context.Background(), net, Options{Lambda: 7, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := RouteContext(context.Background(), net, Options{Lambda: 7, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	ref := pareto.Sol{W: 1 << 40, D: 1 << 40}
	if pareto.Hypervolume(itemSols(many), ref) < pareto.Hypervolume(itemSols(few), ref) {
		t.Fatal("hypervolume decreased with more iterations")
	}
}

func itemSols(items []pareto.Item[*tree.Tree]) []pareto.Sol {
	out := make([]pareto.Sol, len(items))
	for i, it := range items {
		out[i] = it.Sol
	}
	return out
}

func TestRouteErrors(t *testing.T) {
	if _, err := RouteContext(context.Background(), tree.Net{}, Options{}); err == nil {
		t.Fatal("empty net accepted")
	}
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(1, 1))
	if _, err := RouteContext(context.Background(), net, Options{Lambda: 1}); err == nil {
		t.Fatal("lambda 1 accepted")
	}
	if _, err := RouteContext(context.Background(), net, Options{Lambda: dw.MaxExactDegree + 1}); err == nil {
		t.Fatal("oversized lambda accepted")
	}
}

// TestResolve pins the one place λ and the table get their defaults:
// λ = 0 becomes DefaultLambda, a nil table the shared default table,
// resolving twice changes nothing, and an out-of-range λ is rejected by
// Resolve and by every entry point that resolves, WindowFrontier
// included.
func TestResolve(t *testing.T) {
	var opts Options
	if err := opts.Resolve(); err != nil {
		t.Fatal(err)
	}
	if opts.Lambda != DefaultLambda || opts.Table != lut.Default() {
		t.Fatalf("resolved λ %d, table %p; want %d, %p", opts.Lambda, opts.Table, DefaultLambda, lut.Default())
	}
	own := lut.New()
	again := Options{Lambda: 4, Table: own}
	if err := again.Resolve(); err != nil || again.Lambda != 4 || again.Table != own {
		t.Fatalf("resolving set options changed them: λ %d, err %v", again.Lambda, err)
	}
	net := tree.NewNet(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(3, 2))
	for _, lambda := range []int{-1, 1, dw.MaxExactDegree + 1} {
		bad := Options{Lambda: lambda}
		if err := bad.Resolve(); err == nil {
			t.Fatalf("Resolve accepted lambda %d", lambda)
		}
		if _, err := WindowFrontier(context.Background(), net, []int{0, 1, 2}, Options{Lambda: lambda}); err == nil {
			t.Fatalf("WindowFrontier accepted lambda %d", lambda)
		}
	}
}

func TestFrontierMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	net := randNet(rng, 6, 80)
	sols, err := FrontierContext(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items, err := RouteContext(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != len(items) {
		t.Fatal("Frontier and Route disagree")
	}
}

func TestStepHypervolume(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	net := randNet(rng, 14, 300)
	base := rsmt.Tree(net)
	ref := pareto.Sol{W: base.Wirelength() * 2, D: base.MaxDelay() * 2}
	before := pareto.Hypervolume([]pareto.Sol{base.Sol()}, ref)
	hv, err := StepHypervolume(net, base, []int{3, 7, 11}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if hv < before {
		t.Fatalf("step hypervolume %v below base %v", hv, before)
	}
	// Base must be untouched by the step.
	if err := base.Validate(net); err != nil {
		t.Fatal(err)
	}
}

func TestChunkSelectionDistinct(t *testing.T) {
	for _, tc := range []struct{ n, k, round int }{
		{10, 9, 0},     // k == sinks
		{10, 9, 1},     // wraps fully
		{10, 8, 1},     // wraps mid-window
		{10, 1, 5},     // single pin
		{5, 8, 0},      // k clamped to sinks
		{5, 8, 3},      // clamped and rotated
		{100, 8, 12},   // large net, deep round
		{100, 8, 1000}, // round far beyond one sweep
	} {
		sel := chunkSelection(tc.n, tc.k, tc.round)
		wantLen := tc.k
		if wantLen > tc.n-1 {
			wantLen = tc.n - 1
		}
		if len(sel) != wantLen {
			t.Fatalf("chunkSelection(%d,%d,%d) = %v, want %d pins", tc.n, tc.k, tc.round, sel, wantLen)
		}
		seen := map[int]bool{}
		for _, p := range sel {
			if p < 1 || p >= tc.n {
				t.Fatalf("chunkSelection(%d,%d,%d) selected invalid pin %d", tc.n, tc.k, tc.round, p)
			}
			if seen[p] {
				t.Fatalf("chunkSelection(%d,%d,%d) = %v selects pin %d twice", tc.n, tc.k, tc.round, sel, p)
			}
			seen[p] = true
		}
	}
}

// sameItems asserts two routed frontiers are byte-identical: same
// objective vectors in the same order realised by structurally identical
// trees.
func sameItems(t *testing.T, label string, a, b []pareto.Item[*tree.Tree]) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d items vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Sol != b[i].Sol {
			t.Fatalf("%s: item %d sol %v vs %v", label, i, a[i].Sol, b[i].Sol)
		}
		if !treesEqual(a[i].Val, b[i].Val) {
			t.Fatalf("%s: item %d trees differ:\n%v\n%v", label, i, a[i].Val, b[i].Val)
		}
	}
}

// TestRouteCacheDifferential proves the sub-frontier memo and the
// rebalance skip never change results: caches on vs Options.NoCache must
// be byte-identical, for both window regimes (λ=5 windows answered by
// the lookup table under canonical keys; default λ=9 windows answered by
// the exact DP under translation keys).
func TestRouteCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	for _, lambda := range []int{0, 5} {
		for trial := 0; trial < 6; trial++ {
			n := 12 + rng.Intn(30)
			net := randNet(rng, n, 500)
			cached, err := RouteContext(context.Background(), net, Options{Lambda: lambda})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RouteContext(context.Background(), net, Options{Lambda: lambda, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			sameItems(t, "cached vs plain", cached, plain)
			for _, it := range cached {
				if err := it.Val.Validate(net); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestRouteSharedCacheAcrossNets routes translated and reflected copies
// of one net through a shared SubCache: results must match per-net
// no-cache routing exactly, and the shared memo must actually hit.
func TestRouteSharedCacheAcrossNets(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	base := randNet(rng, 24, 400)
	nets := []tree.Net{base}
	// Translate.
	shift := tree.Net{Pins: make([]geom.Point, len(base.Pins))}
	for i, p := range base.Pins {
		shift.Pins[i] = geom.Pt(p.X+1000, p.Y-77)
	}
	nets = append(nets, shift)
	// Mirror in x (a fresh symmetry class member for canonical windows).
	mirror := tree.Net{Pins: make([]geom.Point, len(base.Pins))}
	for i, p := range base.Pins {
		mirror.Pins[i] = geom.Pt(-p.X, p.Y)
	}
	nets = append(nets, mirror)

	cache := NewSubCache(0)
	for _, lambda := range []int{0, 5} {
		for _, net := range nets {
			cached, err := RouteContext(context.Background(), net, Options{Lambda: lambda, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RouteContext(context.Background(), net, Options{Lambda: lambda, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			sameItems(t, "shared cache vs plain", cached, plain)
		}
	}
	hits, misses := cache.Counters()
	if hits == 0 || misses == 0 {
		t.Fatalf("shared cache counters hits=%d misses=%d, want both positive", hits, misses)
	}
}
