package main

import (
	"context"
	"strings"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

func testTable(t *testing.T) *lut.Table {
	t.Helper()
	tab, err := buildTable()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// routed returns a correct output for net, routed without caches.
func routed(t *testing.T, tab *lut.Table, net tree.Net) output {
	t.Helper()
	items, err := core.RouteContext(context.Background(), net, core.Options{Table: tab, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) < 2 {
		t.Fatalf("degree-%d net has a %d-point frontier; the corruptions need two", net.Degree(), len(items))
	}
	return output{net: net, items: items}
}

func cloneOutput(o output) output {
	c := o
	c.items = make([]pareto.Item[*tree.Tree], len(o.items))
	for i, it := range o.items {
		c.items[i] = pareto.Item[*tree.Tree]{Sol: it.Sol, Val: it.Val.Clone()}
	}
	return c
}

func TestCheckRejectsCorruptFrontiers(t *testing.T) {
	tab := testTable(t)
	ctx := context.Background()
	nets := map[string]tree.Net{
		// Table-answered and DP-checked.
		"small": tree.NewNet(geom.Pt(0, 0), geom.Pt(10, 40), geom.Pt(40, 10), geom.Pt(30, 35), geom.Pt(-20, 25)),
		// Local search; only the structural checks apply.
		"large": tree.NewNet(geom.Pt(0, 0),
			geom.Pt(100, 400), geom.Pt(400, 100), geom.Pt(300, 350), geom.Pt(-200, 250), geom.Pt(50, -300),
			geom.Pt(-350, -100), geom.Pt(220, -180), geom.Pt(-90, 410), geom.Pt(380, 300), geom.Pt(-260, -330),
			geom.Pt(150, 150), geom.Pt(-120, 60)),
	}
	corruptions := map[string]func(o *output){
		"reported sol": func(o *output) { o.items[0].Sol.W++ },
		"order":        func(o *output) { o.items[0], o.items[1] = o.items[1], o.items[0] },
		"dominated": func(o *output) {
			it := o.items[0]
			o.items = append(o.items, pareto.Item[*tree.Tree]{Sol: it.Sol, Val: it.Val.Clone()})
		},
		"tree off its pin": func(o *output) {
			tr := o.items[0].Val
			for i := range tr.Nodes {
				if tr.Nodes[i].Pin > 0 {
					tr.Nodes[i].P.X++
					break
				}
			}
		},
		"empty": func(o *output) { o.items = nil },
	}
	for netName, net := range nets {
		good := routed(t, tab, net)
		if err := check(ctx, good, tab); err != nil {
			t.Fatalf("%s: correct frontier rejected: %v", netName, err)
		}
		for name, corrupt := range corruptions {
			bad := cloneOutput(good)
			corrupt(&bad)
			if err := check(ctx, bad, tab); err == nil {
				t.Errorf("%s: %s: corrupted frontier accepted", netName, name)
			}
		}
	}

	// A frontier missing a point is still strictly Pareto; only the
	// comparison with the concrete DP catches it.
	bad := cloneOutput(routed(t, tab, nets["small"]))
	bad.items = bad.items[1:]
	if err := check(ctx, bad, tab); err == nil || !strings.Contains(err.Error(), "concrete DP") {
		t.Errorf("truncated small frontier: got %v, want a concrete DP mismatch", err)
	}
	// An exact output must equal core.Route byte for byte, so a tree that
	// is valid but differs is rejected too.
	bad = cloneOutput(routed(t, tab, nets["large"]))
	bad.exact = true
	if err := check(ctx, bad, tab); err != nil {
		t.Fatalf("exact output of core.Route rejected: %v", err)
	}
	bad.items[0].Val.Nodes = append(bad.items[0].Val.Nodes, tree.Node{P: bad.net.Source(), Pin: -1})
	bad.items[0].Val.Parent = append(bad.items[0].Val.Parent, bad.items[0].Val.Root)
	if err := check(ctx, bad, tab); err == nil || !strings.Contains(err.Error(), "core.Route") {
		t.Errorf("altered exact frontier: got %v, want a core.Route mismatch", err)
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	tab := testTable(t)
	for _, name := range workloadNames() {
		w := workloads[name]
		digest := func(seed int64, b int) string {
			d, err := w.block(seed, b, tab)
			if err != nil {
				t.Fatal(err)
			}
			return d.digest()
		}
		a := digest(7, 1)
		if b := digest(7, 1); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if b := digest(8, 1); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
		if b := digest(7, 2); a == b {
			t.Errorf("%s: blocks 1 and 2 of seed 7 gave the same digest %s", name, a)
		}
	}
	// The inputs are pinned: a change to the generators or to netgen shows
	// up here before it silently changes what the benchmark measures.
	d, err := workloads["iccad_mix"].block(1, 1, tab)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.digest(), "2402bbe18111d9af154e75ae"; got != want {
		t.Errorf("iccad_mix seed 1 block 1 digest %s, want %s", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}
