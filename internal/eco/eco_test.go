package eco_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/eco"
	"patlabor/internal/geom"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

func pt(x, y int64) geom.Point { return geom.Pt(x, y) }

func TestApplySemantics(t *testing.T) {
	net := tree.NewNet(pt(0, 0), pt(10, 0), pt(0, 10), pt(10, 10))

	t.Run("move", func(t *testing.T) {
		next, diff, err := eco.Apply(net, []eco.Edit{eco.MovePin(1, pt(20, 0))})
		if err != nil {
			t.Fatal(err)
		}
		if next.Pins[1] != pt(20, 0) {
			t.Fatalf("pin 1 = %v", next.Pins[1])
		}
		if fmt.Sprint(diff.OldDirty) != "[1]" || fmt.Sprint(diff.NewDirty) != "[1]" {
			t.Fatalf("dirty = %v / %v", diff.OldDirty, diff.NewDirty)
		}
		if diff.Structural || diff.Unchanged {
			t.Fatalf("diff = %+v", diff)
		}
	})
	t.Run("perturb accumulates", func(t *testing.T) {
		next, diff, err := eco.Apply(net, []eco.Edit{
			eco.PerturbCoords(2, pt(1, -2)),
			eco.PerturbCoords(2, pt(-3, 5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if next.Pins[2] != pt(-2, 13) {
			t.Fatalf("pin 2 = %v", next.Pins[2])
		}
		if fmt.Sprint(diff.OldDirty) != "[2]" {
			t.Fatalf("dirty = %v", diff.OldDirty)
		}
	})
	t.Run("cancelling edits are unchanged", func(t *testing.T) {
		_, diff, err := eco.Apply(net, []eco.Edit{
			eco.MovePin(1, pt(99, 99)),
			eco.PerturbCoords(3, pt(5, 5)),
			eco.MovePin(1, net.Pins[1]),
			eco.PerturbCoords(3, pt(-5, -5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Unchanged || len(diff.OldDirty) != 0 {
			t.Fatalf("diff = %+v", diff)
		}
	})
	t.Run("remove shifts indices", func(t *testing.T) {
		next, diff, err := eco.Apply(net, []eco.Edit{eco.RemoveSink(1)})
		if err != nil {
			t.Fatal(err)
		}
		if next.Degree() != 3 || next.Pins[1] != pt(0, 10) || next.Pins[2] != pt(10, 10) {
			t.Fatalf("pins = %v", next.Pins)
		}
		if fmt.Sprint(diff.PinMap) != "[0 -1 1 2]" {
			t.Fatalf("pinMap = %v", diff.PinMap)
		}
		if !diff.Structural || fmt.Sprint(diff.OldDirty) != "[1]" {
			t.Fatalf("diff = %+v", diff)
		}
	})
	t.Run("add then remove restores", func(t *testing.T) {
		_, diff, err := eco.Apply(net, []eco.Edit{eco.AddSink(pt(5, 5)), eco.RemoveSink(4)})
		if err != nil {
			t.Fatal(err)
		}
		// Correspondence is restored, but the structural flag records
		// that the pin count changed along the way; final-state geometry
		// is what matters for dirtiness.
		if len(diff.OldDirty) != 0 || len(diff.NewDirty) != 0 {
			t.Fatalf("diff = %+v", diff)
		}
	})
	t.Run("errors", func(t *testing.T) {
		two := tree.NewNet(pt(0, 0), pt(5, 5))
		cases := [][]eco.Edit{
			{eco.MovePin(9, pt(0, 0))},
			{eco.PerturbCoords(-1, pt(0, 0))},
			{eco.RemoveSink(0)},
			{eco.RemoveSink(5)},
		}
		for i, edits := range cases {
			if _, _, err := eco.Apply(net, edits); err == nil {
				t.Fatalf("case %d: no error", i)
			}
		}
		if _, _, err := eco.Apply(two, []eco.Edit{eco.RemoveSink(1)}); err == nil {
			t.Fatal("degree-2 removal accepted")
		}
	})
	t.Run("input never mutated", func(t *testing.T) {
		before := fmt.Sprint(net.Pins)
		_, _, _ = eco.Apply(net, []eco.Edit{eco.MovePin(0, pt(-7, -7)), eco.AddSink(pt(1, 1)), eco.RemoveSink(1)})
		if fmt.Sprint(net.Pins) != before {
			t.Fatalf("input mutated: %v", net.Pins)
		}
	})
}

// sameFrontier fails the test unless got and want are byte-identical
// frontiers (objective vectors and trees, node for node) and every tree
// validates against net.
func sameFrontier(t *testing.T, label string, net tree.Net, got, want []pareto.Item[*tree.Tree]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Sol != want[i].Sol {
			t.Fatalf("%s: item %d sol %+v, want %+v", label, i, got[i].Sol, want[i].Sol)
		}
		a, b := got[i].Val, want[i].Val
		if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("%s: item %d tree shape differs", label, i)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] || a.Parent[j] != b.Parent[j] {
				t.Fatalf("%s: item %d node %d differs", label, i, j)
			}
		}
		if err := a.Validate(net); err != nil {
			t.Fatalf("%s: item %d: %v", label, i, err)
		}
	}
}

// TestChurnDifferential is the ECO determinism contract on 220 nets:
// every incremental Reroute result is byte-identical to a from-scratch
// core.Route of the post-edit net — with the session cache cold (fresh
// session per net), warm (one session across all nets and steps) and
// disabled (NoCache). The worker-pool variant of the same contract lives
// in the engine's RerouteBatch differential.
func TestChurnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	const count = 220
	nets := make([]tree.Net, count)
	for i := range nets {
		deg := 2 + rng.Intn(6) // 2..7: exact small-net frontiers
		if i%11 == 0 {
			deg = 10 + rng.Intn(9) // sprinkle local-search nets
		}
		nets[i] = netgen.Uniform(rng, deg, 4000)
	}
	streams := make([][][]eco.Edit, count)
	for i, net := range nets {
		streams[i] = netgen.EditStream(rng, net, netgen.EditStreamOptions{
			Steps: 2, EditsPerStep: 1 + net.Degree()/8,
			RevertPercent: 30, StructuralPercent: 25, Span: 4000,
		})
	}

	ctx := context.Background()
	warm, err := eco.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nocache, err := eco.NewSession(core.Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name    string
		session func() *eco.Session // per-net session supplier
	}{
		{"warm", func() *eco.Session { return warm }},
		{"cold", func() *eco.Session {
			s, err := eco.NewSession(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"nocache", func() *eco.Session { return nocache }},
	}
	for _, mode := range modes {
		for i, net := range nets {
			s := mode.session()
			h, err := s.Track(ctx, net)
			if err != nil {
				t.Fatalf("%s: net %d: %v", mode.name, i, err)
			}
			for si, edits := range streams[i] {
				label := fmt.Sprintf("%s: net %d step %d", mode.name, i, si)
				got, err := h.Reroute(ctx, edits)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				post := h.Net()
				want, err := core.RouteContext(context.Background(), post, core.Options{})
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				sameFrontier(t, label, post, got, want)
			}
		}
	}
	for _, s := range []*eco.Session{warm, nocache} {
		st := s.Stats()
		if st.EcoHits+st.FullReroutes != st.Tracks+st.Reroutes {
			t.Fatalf("stats invariant: %+v", st)
		}
	}
	if st := warm.Stats(); st.EcoHits == 0 {
		t.Fatalf("warm session never hit: %+v", st)
	}
	if nocache.SubCache() != nil || nocache.MemoLen() != 0 {
		t.Fatal("NoCache session retained cache state")
	}
}

// TestPreviewDelta checks the incremental delta evaluation is exact: the
// previewed objective vectors equal a from-scratch evaluation of each
// frontier tree with the edited pins patched in.
func TestPreviewDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	s, err := eco.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, deg := range []int{4, 9, 17, 33} {
		net := netgen.Clustered(rng, deg, 20000, 2000)
		h, err := s.Track(ctx, net)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			var edits []eco.Edit
			for k := 0; k <= trial; k++ {
				pin := rng.Intn(deg) // source included
				if rng.Intn(2) == 0 {
					edits = append(edits, eco.MovePin(pin, pt(rng.Int63n(20000), rng.Int63n(20000))))
				} else {
					edits = append(edits, eco.PerturbCoords(pin, pt(rng.Int63n(201)-100, rng.Int63n(201)-100)))
				}
			}
			sols, err := h.PreviewDelta(edits)
			if err != nil {
				t.Fatal(err)
			}
			post, _, err := eco.Apply(h.Net(), edits)
			if err != nil {
				t.Fatal(err)
			}
			items := h.Frontier()
			if len(sols) != len(items) {
				t.Fatalf("deg %d: %d sols for %d items", deg, len(sols), len(items))
			}
			moved := make(map[int]bool)
			for p := range post.Pins {
				if post.Pins[p] != h.Net().Pins[p] {
					moved[p] = true
				}
			}
			for i, it := range items {
				patched := it.Val.Clone()
				for v := range patched.Nodes {
					if p := patched.Nodes[v].Pin; p >= 0 && moved[p] {
						patched.Nodes[v].P = post.Pins[p]
					}
				}
				if want := patched.Sol(); sols[i] != want {
					t.Fatalf("deg %d trial %d item %d: preview %+v, scratch %+v", deg, trial, i, sols[i], want)
				}
			}
		}
		// Structural edits are rejected, and the handle is untouched.
		if _, err := h.PreviewDelta([]eco.Edit{eco.AddSink(pt(1, 1))}); err == nil {
			t.Fatal("structural preview accepted")
		}
	}
}

// render canonicalizes a frontier to bytes (trees print their nodes and
// parents, not their pointer identity).
func render(items []pareto.Item[*tree.Tree]) string {
	out := ""
	for _, it := range items {
		out += fmt.Sprintf("%v r%d %v %v|", it.Sol, it.Val.Root, it.Val.Nodes, it.Val.Parent)
	}
	return out
}

// TestHandleIsolation proves the deep-copy boundaries: mutating the
// input net after Track, a returned tree, or the edit slice can never
// change what the handle later returns.
func TestHandleIsolation(t *testing.T) {
	ctx := context.Background()
	s, err := eco.NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net := tree.NewNet(pt(0, 0), pt(40, 10), pt(35, -20), pt(12, 33))
	h, err := s.Track(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	ref := render(h.Frontier())

	net.Pins[1] = pt(-999, -999) // caller clobbers the tracked net
	first, err := h.Reroute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if render(first) != ref {
		t.Fatal("caller mutation of the input net leaked into the handle")
	}

	first[0].Val.Nodes[0].P = pt(7, 7) // caller clobbers a returned tree
	edits := []eco.Edit{eco.MovePin(1, pt(41, 10))}
	if _, err := h.Reroute(ctx, edits); err != nil {
		t.Fatal(err)
	}
	edits[0] = eco.MovePin(1, pt(-5, -5)) // caller clobbers the edit slice
	back, err := h.Reroute(ctx, []eco.Edit{eco.MovePin(1, pt(40, 10))})
	if err != nil {
		t.Fatal(err)
	}
	if render(back) != ref {
		t.Fatal("handle state corrupted by caller-side mutation")
	}
}
