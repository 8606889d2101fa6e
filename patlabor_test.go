package patlabor

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"patlabor/internal/lut"
)

func TestRouteSmallPublicAPI(t *testing.T) {
	net := NewNet(Pt(0, 0), Pt(40, 10), Pt(35, -20), Pt(-15, 25))
	cands, err := Route(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	exact, err := ExactFrontier(net)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(exact) {
		t.Fatalf("Route %d candidates, exact %d", len(cands), len(exact))
	}
	for i := range cands {
		if cands[i].Sol != exact[i].Sol {
			t.Fatalf("candidate %d = %v, exact %v", i, cands[i].Sol, exact[i].Sol)
		}
		if err := cands[i].Val.Validate(net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouteLargePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pins := make([]Point, 18)
	for i := range pins {
		pins[i] = Pt(rng.Int63n(1000), rng.Int63n(1000))
	}
	net := Net{Pins: pins}
	cands, err := Route(net, Options{Lambda: 7, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if err := c.Val.Validate(net); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	net := NewNet(Pt(0, 0), Pt(100, 30), Pt(90, -40), Pt(-60, 70), Pt(20, 110))
	if tr := RSMT(net); tr.Validate(net) != nil {
		t.Fatal("RSMT invalid")
	}
	if tr := RSMA(net); tr.Validate(net) != nil {
		t.Fatal("RSMA invalid")
	}
	if items := SALTSweep(net, nil); len(items) == 0 {
		t.Fatal("SALT sweep empty")
	}
	if items, err := YSDSweep(net, nil); err != nil || len(items) == 0 {
		t.Fatalf("YSD sweep: %v, %d items", err, len(items))
	}
	if items := PDSweep(net, nil); len(items) == 0 {
		t.Fatal("PD sweep empty")
	}
	if items, err := KSFrontier(net); err != nil || len(items) == 0 {
		t.Fatalf("KS frontier: %v, %d items", err, len(items))
	}
}

func TestNetFileRoundTripPublicAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nets.txt")
	nets := []NamedNet{{Name: "demo", Net: NewNet(Pt(0, 0), Pt(5, 5), Pt(-3, 8))}}
	if err := WriteNets(path, nets); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Name != "demo" || back[0].Net.Degree() != 3 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestRouteWithTablePath(t *testing.T) {
	// A missing table file must error cleanly.
	net := NewNet(Pt(0, 0), Pt(1, 1))
	if _, err := Route(net, Options{TablePath: filepath.Join(t.TempDir(), "nope.plut")}); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestRouteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nets := make([]Net, 9)
	for i := range nets {
		pins := make([]Point, 4+rng.Intn(4))
		for j := range pins {
			pins[j] = Pt(rng.Int63n(500), rng.Int63n(500))
		}
		nets[i] = Net{Pins: pins}
	}
	batch, err := RouteAll(nets, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(nets) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, cands := range batch {
		want, err := Route(nets[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != len(want) {
			t.Fatalf("net %d: concurrent result differs", i)
		}
		for k := range want {
			if cands[k].Sol != want[k].Sol {
				t.Fatalf("net %d: concurrent result differs at %d", i, k)
			}
		}
	}
	// Errors propagate.
	bad := []Net{{}}
	if _, err := RouteAll(bad, Options{}, 2); err == nil {
		t.Fatal("empty net accepted")
	}
}

func TestElmorePublicAPI(t *testing.T) {
	net := NewNet(Pt(180, 70), Pt(50, 0), Pt(50, 140), Pt(100, 100), Pt(20, 60))
	cands, err := Route(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := TypicalElmoreParams()
	kept := ElmoreRank(cands, p)
	if len(kept) == 0 {
		t.Fatal("Elmore rank kept nothing")
	}
	for _, idx := range kept {
		if d := ElmoreDelay(cands[idx].Val, p); d <= 0 {
			t.Fatalf("Elmore delay = %v", d)
		}
	}
}

func TestMethodsAndRouteWith(t *testing.T) {
	names := Methods()
	for _, want := range []string{"patlabor", "salt", "ysd", "pd-ii", "pareto-ks", "pareto-dw", "rsmt", "rsma"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Methods() = %v, missing %q", names, want)
		}
	}
	net := NewNet(Pt(0, 0), Pt(40, 10), Pt(35, -20), Pt(-15, 25))
	ctx := context.Background()

	got, err := RouteWith(ctx, "patlabor", net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Route(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RouteWith(patlabor) %d candidates, Route %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Sol != want[i].Sol {
			t.Fatalf("RouteWith(patlabor) differs at %d", i)
		}
	}

	saltGot, err := RouteWith(ctx, "SALT", net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saltWant := SALTSweep(net, nil)
	if len(saltGot) != len(saltWant) {
		t.Fatalf("RouteWith(SALT) %d candidates, SALTSweep %d", len(saltGot), len(saltWant))
	}
	for i := range saltWant {
		if saltGot[i].Sol != saltWant[i].Sol {
			t.Fatalf("RouteWith(SALT) differs at %d", i)
		}
	}

	if _, err := RouteWith(ctx, "no-such-method", net, Options{}); err == nil {
		t.Fatal("unknown method accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := RouteWith(cancelled, "ysd", net, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RouteWith: err = %v", err)
	}
}

// TestTablePathLoadedOnce is the regression test for the per-call table
// reload: the file must be read on the first Route and never again —
// deleting it between calls must not matter, and the second Route must
// return the same frontier.
func TestTablePathLoadedOnce(t *testing.T) {
	table := lut.New()
	if err := table.Generate(4, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deg4.plut")
	if err := table.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}

	net := NewNet(Pt(0, 0), Pt(17, 4), Pt(3, 21), Pt(11, 9))
	first, err := Route(net, Options{TablePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// The file is gone; only the memoized table can answer now.
	second, err := Route(net, Options{TablePath: path})
	if err != nil {
		t.Fatalf("second Route re-read the deleted table file: %v", err)
	}
	if len(first) != len(second) {
		t.Fatalf("frontiers differ across memoized calls: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Sol != second[i].Sol {
			t.Fatalf("memoized frontier differs at %d", i)
		}
	}
	// The engine path must share the same cache — the file is deleted, so
	// constructing an engine on the path only works via the memo.
	if _, err := NewEngine(Options{TablePath: path}, 2); err != nil {
		t.Fatalf("NewEngine re-read the deleted table file: %v", err)
	}
}

func TestRouteAllContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nets := []Net{NewNet(Pt(0, 0), Pt(9, 9), Pt(4, 1))}
	if _, err := RouteAllContext(ctx, nets, Options{}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReroutePublicAPI(t *testing.T) {
	ctx := context.Background()
	r, err := NewRerouter(Options{})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNet(Pt(0, 0), Pt(40, 10), Pt(35, -20), Pt(-15, 25))
	h, err := r.Track(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	edits := []Edit{
		MovePin(3, Pt(120, -40)),
		AddSink(Pt(-30, -30)),
		PerturbCoords(1, Pt(5, 5)),
	}
	cands, err := Reroute(ctx, h, edits)
	if err != nil {
		t.Fatal(err)
	}
	post, err := ApplyEdits(net, edits)
	if err != nil {
		t.Fatal(err)
	}
	if hn := h.Net(); len(hn.Pins) != len(post.Pins) {
		t.Fatalf("handle degree %d, ApplyEdits degree %d", len(hn.Pins), len(post.Pins))
	}
	want, err := Route(post, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(want) {
		t.Fatalf("incremental %d candidates, from-scratch %d", len(cands), len(want))
	}
	for i := range cands {
		if cands[i].Sol != want[i].Sol {
			t.Fatalf("candidate %d: %v != %v", i, cands[i].Sol, want[i].Sol)
		}
		if err := cands[i].Val.Validate(post); err != nil {
			t.Fatal(err)
		}
	}
	// Removing the just-added sink restores the original geometry, and the
	// session's memo answers it without routing again.
	st0 := r.Stats()
	back, err := Reroute(ctx, h, []Edit{
		RemoveSink(4),
		MovePin(3, Pt(-15, 25)),
		PerturbCoords(1, Pt(-5, -5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.EcoHits != st0.EcoHits+1 {
		t.Fatalf("revert was not a memo hit: %+v -> %+v", st0, st)
	}
	orig, err := Route(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i].Sol != orig[i].Sol {
			t.Fatalf("revert candidate %d: %v != %v", i, back[i].Sol, orig[i].Sol)
		}
	}
	if _, err := ApplyEdits(net, []Edit{RemoveSink(0)}); err == nil {
		t.Fatal("source removal accepted")
	}
}

// TestRangeOverflowIsAnError checks that nets whose DP sums could wrap
// int64 are rejected rather than answered with wrapped objectives, and
// that a net at the declared bound still routes exactly.
func TestRangeOverflowIsAnError(t *testing.T) {
	const big = int64(1) << 62
	corners := NewNet(Pt(-big, -big), Pt(big, -big), Pt(-big, big), Pt(big, big))
	if cands, err := ExactFrontier(corners); err == nil {
		t.Fatalf("ExactFrontier on ±2^62 corners: %v, want an error", cands)
	}
	// Degrees 4 and 5 are answered by the lookup table, whose gap sums
	// overflow just like the DP's.
	centred := NewNet(Pt(0, 0), Pt(-big, -big), Pt(big, -big), Pt(-big, big), Pt(big, big))
	for _, net := range []Net{corners, centred} {
		if cands, err := Route(net, Options{}); err == nil {
			t.Fatalf("Route on degree-%d ±2^62 corners: %v, want an error", net.Degree(), cands)
		}
	}
	rng := rand.New(rand.NewSource(62))
	pins := make([]Point, 6)
	for i := range pins {
		pins[i] = Pt(rng.Int63n(big), rng.Int63n(big))
	}
	wide := Net{Pins: pins}
	if cands, err := ExactFrontier(wide); err == nil {
		t.Fatalf("ExactFrontier on a degree-6 net in [0,2^62]²: %v, want an error", cands)
	}
	if cands, err := Route(wide, Options{}); err == nil {
		t.Fatalf("Route on a degree-6 net in [0,2^62]²: %v, want an error", cands)
	}

	// Five distinct sinks: half-perimeter MaxInt64/20 is the bound.
	hp := int64(1<<63-1) / 20
	a, b := hp/2, hp-hp/2
	atBound := NewNet(Pt(0, 0), Pt(a, 0), Pt(0, b), Pt(a, b), Pt(a/2, b/3), Pt(a/3, b/2))
	for _, r := range []struct {
		name  string
		route func(Net) ([]Candidate, error)
	}{
		{"ExactFrontier", ExactFrontier},
		{"Route", func(n Net) ([]Candidate, error) { return Route(n, Options{}) }},
	} {
		cands, err := r.route(atBound)
		if err != nil {
			t.Fatalf("%s at the bound: %v", r.name, err)
		}
		for _, c := range cands {
			if c.Sol.W < 0 || c.Sol.D < 0 || c.Val.Sol() != c.Sol {
				t.Fatalf("%s at the bound: reported %v, tree %v", r.name, c.Sol, c.Val.Sol())
			}
		}
	}
}
