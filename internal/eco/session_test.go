package eco

// White-box property tests for the precise-invalidation protocol: which
// sub-frontier cache keys an edit evicts, which survive, and how the
// session counters bound the traffic. The black-box differential suite
// lives in eco_test.go (package eco_test).

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// randNet builds a degree-n net spread over span×span at offset.
func randNet(rng *rand.Rand, n int, span int64, offset geom.Point) tree.Net {
	pins := make([]geom.Point, n)
	seen := map[geom.Point]bool{}
	for i := range pins {
		for {
			p := geom.Pt(offset.X+rng.Int63n(span), offset.Y+rng.Int63n(span))
			if !seen[p] {
				seen[p] = true
				pins[i] = p
				break
			}
		}
	}
	return tree.Net{Pins: pins}
}

// TestInvalidatePrecision pins the eviction protocol down key by key:
// after an edit dirties one pin, exactly the traced windows containing
// that pin are evicted; every other traced window — including all the
// windows of an unrelated tracked net — survives, and the hit/miss
// counters do not move (eviction is not cache traffic).
func TestInvalidatePrecision(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	s, err := NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hA, err := s.Track(ctx, randNet(rng, 40, 30000, geom.Pt(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	// B lives in a disjoint coordinate region, so no window key collides
	// with A's (keys are relative, but relative geometries of independent
	// random nets do not coincide).
	hB, err := s.Track(ctx, randNet(rng, 40, 30000, geom.Pt(1_000_000, 1_000_000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(hA.trace) == 0 || len(hB.trace) == 0 {
		t.Fatalf("no traced windows (A %d, B %d) — local search did not run?", len(hA.trace), len(hB.trace))
	}

	// Dirty one sink that at least one window covers.
	var dirty int
	for _, w := range hA.trace {
		for _, p := range w.Pins {
			if p > 0 {
				dirty = p
				break
			}
		}
		if dirty > 0 {
			break
		}
	}
	if dirty == 0 {
		t.Fatal("no sink appears in any traced window")
	}
	geo := make([]bool, hA.net.Degree())
	geo[dirty] = true

	touched, untouched := map[string]bool{}, map[string]bool{}
	for _, w := range hA.trace {
		hit := false
		for _, p := range w.Pins {
			if p == dirty {
				hit = true
				break
			}
		}
		if hit {
			touched[w.Key] = true
		}
	}
	for _, w := range hA.trace {
		if !touched[w.Key] {
			untouched[w.Key] = true
		}
	}
	if len(touched) == 0 {
		t.Fatal("dirty pin touches no window")
	}

	cache := s.copts.Cache
	hits0, misses0 := cache.Counters()
	len0 := cache.Len()
	inv0 := s.cacheInvalidations.Load()

	s.invalidate(hA.trace, geo)

	inv := s.cacheInvalidations.Load() - inv0
	if inv <= 0 || inv > int64(len(touched)) {
		t.Fatalf("%d invalidations for %d touched keys", inv, len(touched))
	}
	if h, m := cache.Counters(); h != hits0 || m != misses0 {
		t.Fatalf("eviction moved the hit/miss counters: (%d,%d) -> (%d,%d)", hits0, misses0, h, m)
	}
	if got := int64(len0 - cache.Len()); got != inv {
		t.Fatalf("cache shrank by %d, counted %d invalidations", got, inv)
	}
	// Touched keys are gone; untouched keys of A and all of B survive.
	// (Remove doubles as a destructive residency probe.)
	for k := range touched {
		if cache.Remove(k) {
			t.Fatal("touched key still resident after invalidate")
		}
	}
	for k := range untouched {
		if !cache.Remove(k) {
			t.Fatal("untouched key of the edited net was evicted")
		}
	}
	seen := map[string]bool{}
	for _, w := range hB.trace {
		if seen[w.Key] || untouched[w.Key] || touched[w.Key] {
			continue
		}
		seen[w.Key] = true
		if !cache.Remove(w.Key) {
			t.Fatal("unrelated net's window was evicted")
		}
	}
}

// TestInvalidationBounds replays a churn stream and checks, step by
// step, that the invalidation count never exceeds the number of traced
// windows touched by the edit's dirty-subtree closure (the documented
// upper bound), and that the channel invariant
// EcoHits + FullReroutes == Tracks + Reroutes holds throughout.
func TestInvalidationBounds(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	s, err := NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Track(ctx, randNet(rng, 32, 20000, geom.Pt(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 12; step++ {
		edits := []Edit{
			MovePin(1+rng.Intn(h.net.Degree()-1), geom.Pt(rng.Int63n(20000), rng.Int63n(20000))),
		}
		_, diff, err := Apply(h.net, edits)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute the closure the reroute will derive (the extra
		// markDirty call inflates only the DirtySubtrees stat, which this
		// test does not assert on).
		_, closure := h.markDirty(diff.OldDirty)
		bound := map[string]bool{}
		for _, w := range h.trace {
			for _, p := range w.Pins {
				if p < len(closure) && closure[p] {
					bound[w.Key] = true
					break
				}
			}
		}
		inv0 := s.cacheInvalidations.Load()
		if _, err := h.Reroute(ctx, edits); err != nil {
			t.Fatal(err)
		}
		if inv := s.cacheInvalidations.Load() - inv0; inv > int64(len(bound)) {
			t.Fatalf("step %d: %d invalidations exceed the %d windows the dirty closure touches", step, inv, len(bound))
		}
		st := s.Stats()
		if st.EcoHits+st.FullReroutes != st.Tracks+st.Reroutes {
			t.Fatalf("step %d: channel invariant broken: %+v", step, st)
		}
	}
}

// TestMemoRevisit checks the net-level memo across handles: tracking a
// pure translate of an already-routed geometry is answered as an EcoHit
// with the trace carried over, so a later edit on the translated handle
// still invalidates precisely.
func TestMemoRevisit(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	s, err := NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := randNet(rng, 24, 15000, geom.Pt(0, 0))
	h1, err := s.Track(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	moved := copyNet(base)
	for i := range moved.Pins {
		moved.Pins[i] = moved.Pins[i].Add(geom.Pt(777, -333))
	}
	hits0 := s.ecoHits.Load()
	h2, err := s.Track(ctx, moved)
	if err != nil {
		t.Fatal(err)
	}
	if s.ecoHits.Load() != hits0+1 {
		t.Fatalf("translated revisit was not a memo hit: %+v", s.Stats())
	}
	if len(h2.trace) != len(h1.trace) {
		t.Fatalf("trace not carried over: %d windows, want %d", len(h2.trace), len(h1.trace))
	}
	inv0 := s.cacheInvalidations.Load()
	if _, err := h2.Reroute(ctx, []Edit{MovePin(3, geom.Pt(500, 500))}); err != nil {
		t.Fatal(err)
	}
	if s.cacheInvalidations.Load() == inv0 {
		t.Fatal("edit on a memo-answered handle invalidated nothing")
	}
}

// TestMemoEviction checks the net memo never holds more than its bound:
// tracking more distinct geometries than the memo's capacity evicts,
// translated revisits still hit, and every answer stays byte-identical
// to a cacheless route.
func TestMemoEviction(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	s, err := NewSession(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = core.SubCacheShards // one entry per shard
	s.memo = core.NewSubCache(bound)
	for i := 0; i < 4*bound; i++ {
		net := randNet(rng, 2+rng.Intn(9), 5000, geom.Pt(int64(i)*100_000, 0))
		moved := copyNet(net)
		for j := range moved.Pins {
			moved.Pins[j] = moved.Pins[j].Add(geom.Pt(-31, 17))
		}
		want, err := core.RouteContext(ctx, moved, core.Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		hits0 := s.ecoHits.Load()
		for _, n := range []tree.Net{net, moved} {
			if _, err := s.Track(ctx, n); err != nil {
				t.Fatal(err)
			}
			if got := s.MemoLen(); got > bound {
				t.Fatalf("after %d geometries: %d entries resident, bound %d", i+1, got, bound)
			}
		}
		if s.ecoHits.Load() != hits0+1 {
			t.Fatalf("geometry %d: translated revisit missed the memo", i)
		}
		h, err := s.Track(ctx, moved)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Frontier(); !reflect.DeepEqual(got, want) {
			t.Fatalf("geometry %d: memo answer differs from a cacheless route", i)
		}
	}
}
