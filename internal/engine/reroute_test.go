package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/eco"
	"patlabor/internal/geom"
	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// resultEqual reports whether two frontiers are byte-identical (objective
// vectors and trees, node for node).
func resultEqual(got, want Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("frontier size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Sol != want[i].Sol {
			return fmt.Errorf("item %d: sol %+v, want %+v", i, got[i].Sol, want[i].Sol)
		}
		a, b := got[i].Val, want[i].Val
		if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
			return fmt.Errorf("item %d: tree shape differs", i)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] || a.Parent[j] != b.Parent[j] {
				return fmt.Errorf("item %d: node %d differs", i, j)
			}
		}
	}
	return nil
}

// TestRerouteBatchDifferential is the worker-count half of the churn
// differential: the same pregenerated edit streams replayed through
// engines at workers 1, 8 and 4×GOMAXPROCS (the oversubscribed pool,
// every engine sharing its own warm sharded sub-frontier cache across
// steps) must agree with each other and with a serial from-scratch
// core.Route of every post-edit net, at every step.
func TestRerouteBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	const count, steps = 40, 3
	nets := make([]tree.Net, count)
	for i := range nets {
		deg := 2 + rng.Intn(6)
		if i%5 == 0 {
			deg = 10 + rng.Intn(9)
		}
		nets[i] = netgen.Uniform(rng, deg, 4000)
	}
	streams := make([][][]eco.Edit, count)
	for i, net := range nets {
		streams[i] = netgen.EditStream(rng, net, netgen.EditStreamOptions{
			Steps: steps, EditsPerStep: 1 + net.Degree()/8,
			RevertPercent: 30, StructuralPercent: 20, Span: 4000,
		})
	}

	ctx := context.Background()
	workerCounts := []int{1, 8, 4 * runtime.GOMAXPROCS(0)}
	handles := make([][]*eco.Handle, len(workerCounts))
	engines := make([]*Engine, len(workerCounts))
	for wi, w := range workerCounts {
		eng, err := New(Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		engines[wi] = eng
		if handles[wi], err = eng.Track(ctx, nets); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < steps; s++ {
		batch := make([][]eco.Edit, count)
		for i := range batch {
			batch[i] = streams[i][s]
		}
		var first []Result
		for wi, w := range workerCounts {
			got, err := engines[wi].RerouteBatch(ctx, handles[wi], batch)
			if err != nil {
				t.Fatalf("workers %d step %d: %v", w, s, err)
			}
			for i := range got {
				post := handles[wi][i].Net()
				want, err := core.RouteContext(context.Background(), post, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if err := resultEqual(got[i], want); err != nil {
					t.Fatalf("workers %d step %d net %d vs scratch: %v", w, s, i, err)
				}
				if verr := got[i][0].Val.Validate(post); verr != nil {
					t.Fatalf("workers %d step %d net %d: %v", w, s, i, verr)
				}
			}
			if wi == 0 {
				first = got
			} else {
				for i := range got {
					if err := resultEqual(got[i], first[i]); err != nil {
						t.Fatalf("step %d net %d: workers %d diverge from workers %d: %v",
							s, i, w, workerCounts[0], err)
					}
				}
			}
		}
	}
}

// TestRerouteStats checks the eco counters surface through Stats, the
// channel invariant holds at the engine level, String renders the eco
// block, and Reset rebases the session-cumulative counters to zero.
func TestRerouteStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	eng, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]tree.Net, 8)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 4+rng.Intn(10), 3000)
	}
	handles, err := eng.Track(ctx, nets)
	if err != nil {
		t.Fatal(err)
	}
	edits := make([][]eco.Edit, len(handles))
	for i := range edits {
		// Half the batch is a no-op reroute — guaranteed identity EcoHits.
		if i%2 == 0 {
			edits[i] = nil
		} else {
			edits[i] = []eco.Edit{eco.PerturbCoords(1, geom.Pt(7, -7))}
		}
	}
	if _, err := eng.RerouteBatch(ctx, handles, edits); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	calls := int64(len(nets) + len(handles))
	if s.EcoHits+s.EcoFullReroutes != calls {
		t.Fatalf("EcoHits %d + EcoFullReroutes %d != %d Track/Reroute calls", s.EcoHits, s.EcoFullReroutes, calls)
	}
	if s.EcoHits < int64(len(handles)/2) {
		t.Fatalf("expected at least %d identity hits, got %d", len(handles)/2, s.EcoHits)
	}
	if s.DirtySubtrees <= 0 {
		t.Fatalf("DirtySubtrees = %d after real edits", s.DirtySubtrees)
	}
	if out := s.String(); !strings.Contains(out, "eco") {
		t.Fatalf("String() misses the eco block:\n%s", out)
	}
	eng.Reset()
	s = eng.Stats()
	if s.EcoHits != 0 || s.EcoFullReroutes != 0 || s.DirtySubtrees != 0 || s.CacheInvalidations != 0 {
		t.Fatalf("Reset left eco counters: %+v", s)
	}
	// Post-Reset traffic counts from the new baseline.
	if _, err := eng.RerouteBatch(ctx, handles, edits); err != nil {
		t.Fatal(err)
	}
	if s = eng.Stats(); s.EcoHits+s.EcoFullReroutes != int64(len(handles)) {
		t.Fatalf("rebased counters wrong: %+v", s)
	}
}

// TestRerouteErrors covers the failure surface: baseline-method engines
// reject ECO mode, mismatched batch lengths are caught, and an invalid
// edit reports the lowest failing net index without corrupting handles.
func TestRerouteErrors(t *testing.T) {
	ctx := context.Background()
	base, err := New(Options{Method: "salt"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Track(ctx, []tree.Net{tree.NewNet(geom.Pt(0, 0), geom.Pt(1, 1))}); err == nil {
		t.Fatal("baseline Track accepted")
	}
	if _, err := base.RerouteBatch(ctx, nil, nil); err == nil {
		t.Fatal("baseline RerouteBatch accepted")
	}

	eng, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nets := []tree.Net{
		tree.NewNet(geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(9, 2)),
		tree.NewNet(geom.Pt(1, 1), geom.Pt(6, 6), geom.Pt(2, 9)),
	}
	handles, err := eng.Track(ctx, nets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RerouteBatch(ctx, handles, make([][]eco.Edit, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	bad := [][]eco.Edit{
		{eco.MovePin(99, geom.Pt(0, 0))},
		{eco.MovePin(98, geom.Pt(0, 0))},
	}
	if _, err := eng.RerouteBatch(ctx, handles, bad); err == nil || !strings.Contains(err.Error(), "net 0") {
		t.Fatalf("want lowest-index failure, got %v", err)
	}
	// The failed batch left both handles at their pre-edit state.
	for i, h := range handles {
		want, err := core.RouteContext(context.Background(), nets[i], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := resultEqual(h.Frontier(), want); err != nil {
			t.Fatalf("net %d corrupted by failed batch: %v", i, err)
		}
	}
}

// TestPlanDedupMutationRegression pins down the staleness hazard the eco
// memo shares with the batch dedup: a net mutated by the caller between
// RouteAll calls must never be answered by the congruence-class
// representative of its previous geometry. planDedup keys each call's
// nets afresh, so the mutated net re-keys and re-routes; this test keeps
// it that way.
func TestPlanDedupMutationRegression(t *testing.T) {
	ctx := context.Background()
	eng, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := tree.NewNet(geom.Pt(0, 0), geom.Pt(40, 10), geom.Pt(12, 33), geom.Pt(35, 5))
	shifted := tree.Net{Pins: make([]geom.Point, base.Degree())}
	for i, p := range base.Pins {
		shifted.Pins[i] = p.Add(geom.Pt(1000, 2000))
	}
	nets := []tree.Net{base, shifted}
	first, err := eng.RouteAll(ctx, nets)
	if err != nil {
		t.Fatal(err)
	}
	if err := resultEqual(first[0], first[1]); err == nil {
		// Translates route identically only up to translation; sols match.
		for i := range first[0] {
			if first[0][i].Sol != first[1][i].Sol {
				t.Fatal("translate dedup produced different sols")
			}
		}
	}

	// Mutate the second net in the caller's slice and route again: the
	// result must be the mutated net's own frontier, not the stale class
	// representative's.
	nets[1].Pins[2] = nets[1].Pins[2].Add(geom.Pt(500, -700))
	second, err := eng.RouteAll(ctx, nets)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RouteContext(context.Background(), nets[1], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := resultEqual(second[1], want); err != nil {
		t.Fatalf("mutated net answered stale: %v", err)
	}
	if verr := second[1][0].Val.Validate(nets[1]); verr != nil {
		t.Fatalf("mutated net's tree invalid: %v", verr)
	}
}
