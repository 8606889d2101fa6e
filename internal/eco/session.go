package eco

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"patlabor/internal/core"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// DefaultMemoEntries bounds a Session's net-level frontier memo. ECO
// try/revert loops revisit a handful of geometries per tracked net, so
// the bound is generous while staying far below batch memory.
const DefaultMemoEntries = 1 << 12

// Session is the incremental-rerouting state shared by a set of tracked
// nets: the resolved routing options, the warm sub-frontier memo
// (core.SubCache, shared with the batch engine when one constructed the
// session), and the net-level frontier memo that answers revisited
// geometries by a verified isometry. A Session is safe for concurrent
// use; all cached state is reuse-only — every answer is byte-identical
// to a from-scratch core.Route of the post-edit net.
type Session struct {
	// copts is the resolved core configuration every full route uses;
	// copts.Cache is the shared sub-frontier memo (nil iff NoCache).
	copts core.Options

	// memo answers whole-net geometry revisits: a second core.SubCache,
	// keyed like the batch engine's planDedup (hanan.Key at the level
	// core.NetCanonical picks), whose entries carry the route's window
	// trace. nil iff NoCache. Entries are never stale: keys encode the
	// full geometry, so a mutated net simply keys elsewhere.
	memo *core.SubCache

	tracks             atomic.Int64
	reroutes           atomic.Int64
	ecoHits            atomic.Int64
	fullReroutes       atomic.Int64
	dirtySubtrees      atomic.Int64
	cacheInvalidations atomic.Int64
}

// Stats is a snapshot of a Session's cumulative counters. The invariant
// EcoHits + FullReroutes == Tracks + Reroutes holds at every quiescent
// point: each Track or Reroute resolves through exactly one of the two
// channels.
type Stats struct {
	// Tracks / Reroutes count the nets entering the session and the
	// incremental reroute calls on them.
	Tracks   int64
	Reroutes int64
	// EcoHits counts routes answered without running the router: the
	// identity fast path (edits cancelled out) and net-memo isometry
	// hits.
	EcoHits int64
	// FullReroutes counts routes answered by a full core.Route (with the
	// session's warm sub-frontier memo).
	FullReroutes int64
	// DirtySubtrees counts the subtree roots edits dirtied across the
	// previous frontiers' trees.
	DirtySubtrees int64
	// CacheInvalidations counts the sub-frontier cache keys evicted
	// precisely because their window contained a dirtied pin.
	CacheInvalidations int64
}

// NewSession builds a session from core options, resolving them (see
// core.Options.Resolve); a nil opts.Cache (with caching on) gets a
// private sub-frontier memo. NoCache disables both the sub-frontier memo
// and the net-level memo — reroutes then exercise only the identity fast
// path, proving results never depend on cache state.
func NewSession(opts core.Options) (*Session, error) {
	if err := opts.Resolve(); err != nil {
		return nil, fmt.Errorf("eco: %w", err)
	}
	opts.Trace = nil
	var memo *core.SubCache
	if opts.NoCache {
		opts.Cache = nil
	} else {
		if opts.Cache == nil {
			opts.Cache = core.NewSubCache(0)
		}
		memo = core.NewSubCache(DefaultMemoEntries)
	}
	return &Session{copts: opts, memo: memo}, nil
}

// SubCache returns the session's shared sub-frontier memo (nil iff the
// session was built with NoCache).
func (s *Session) SubCache() *core.SubCache { return s.copts.Cache }

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() Stats {
	return Stats{
		Tracks:             s.tracks.Load(),
		Reroutes:           s.reroutes.Load(),
		EcoHits:            s.ecoHits.Load(),
		FullReroutes:       s.fullReroutes.Load(),
		DirtySubtrees:      s.dirtySubtrees.Load(),
		CacheInvalidations: s.cacheInvalidations.Load(),
	}
}

// Handle is one tracked net: the session's private copy of its current
// geometry, its current frontier, and the sub-frontier windows the route
// that produced the frontier consulted. Handles deep-copy on every
// boundary, so callers mutating inputs or returned trees cannot corrupt
// session state. A Handle is safe for concurrent use, but edits
// serialize — the net has one current geometry.
type Handle struct {
	s *Session

	mu    sync.Mutex
	net   tree.Net
	items []pareto.Item[*tree.Tree]
	trace []core.TraceWindow
	// pl caches, per frontier item, the node path lengths of the current
	// trees; built lazily by PreviewDelta and dropped on reroute.
	pl [][]int64
}

// Track registers net with the session, routes it (through the memo if
// an equivalent geometry was routed before) and returns its handle. The
// input net is copied; later caller mutations of it are invisible to the
// handle.
func (s *Session) Track(ctx context.Context, net tree.Net) (*Handle, error) {
	s.tracks.Add(1)
	n := copyNet(net)
	items, trace, err := s.solve(ctx, n)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, net: n, items: items, trace: trace}, nil
}

// Degree returns the handle's current net degree.
func (h *Handle) Degree() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.net.Degree()
}

// Net returns a copy of the handle's current (post-edit) net.
func (h *Handle) Net() tree.Net {
	h.mu.Lock()
	defer h.mu.Unlock()
	return copyNet(h.net)
}

// Frontier returns a deep copy of the handle's current Pareto frontier.
func (h *Handle) Frontier() []pareto.Item[*tree.Tree] {
	h.mu.Lock()
	defer h.mu.Unlock()
	return cloneItems(h.items)
}

// Reroute applies edits to the handle's net and returns the post-edit
// Pareto frontier, byte-identical to core.Route on the post-edit net.
// Cancelled edits short-circuit to the previous frontier; revisited
// geometries are answered from the net memo; everything else is a full
// route against the warm sub-frontier memo, after the edit's dirtied
// windows have been precisely evicted from it. An invalid edit leaves
// the handle unchanged.
func (h *Handle) Reroute(ctx context.Context, edits []Edit) ([]pareto.Item[*tree.Tree], error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.s
	s.reroutes.Add(1)
	next, diff, err := Apply(h.net, edits)
	if err != nil {
		return nil, err
	}
	if diff.Unchanged {
		s.ecoHits.Add(1)
		return cloneItems(h.items), nil
	}
	geo, _ := h.markDirty(diff.OldDirty)
	if s.copts.Cache != nil && len(h.trace) > 0 {
		s.invalidate(h.trace, geo)
	}
	items, trace, err := s.solve(ctx, next)
	if err != nil {
		return nil, err
	}
	h.net = next
	h.items = items
	h.trace = trace
	h.pl = nil
	return cloneItems(items), nil
}

// markDirty marks the pins of the previous net dirtied by the edit. geo
// holds the geometrically dirty pins themselves — the pins whose cached
// window keys can never be reproduced again and are therefore safe to
// evict. closure additionally holds every pin realised inside their
// subtrees across the previous frontier's trees (the VPR-style dirty
// region — any reuse of the old routing below an edited pin is void);
// it upper-bounds the cache entries an edit may touch and scopes
// PreviewDelta's re-evaluation. Both slices are indexed by previous-net
// pin; subtree roots found count toward the DirtySubtrees stat.
func (h *Handle) markDirty(oldDirty []int) (geo, closure []bool) {
	// Roots are detected against geo only, so closure pins do not
	// cascade into further subtrees.
	geo = make([]bool, h.net.Degree())
	for _, p := range oldDirty {
		geo[p] = true
	}
	closure = append([]bool(nil), geo...)
	var roots int64
	ev := tree.GetEvaluator()
	for _, it := range h.items {
		t := it.Val
		ev.Load(t)
		for v := range t.Nodes {
			p := t.Nodes[v].Pin
			if p < 0 || p >= len(geo) || !geo[p] {
				continue
			}
			roots++
			h.markSubtree(ev, t, v, closure)
		}
	}
	tree.PutEvaluator(ev)
	h.s.dirtySubtrees.Add(roots)
	return geo, closure
}

// markSubtree marks every pin realised in the subtree of node v (BFS
// over the evaluator's CSR adjacency, reusing the caller's stack-free
// queue pattern from tree.TopoOrder).
func (h *Handle) markSubtree(ev *tree.Evaluator, t *tree.Tree, v int, dirty []bool) {
	queue := []int32{int32(v)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if p := t.Nodes[u].Pin; p >= 0 && p < len(dirty) {
			dirty[p] = true
		}
		queue = append(queue, ev.Children(int(u))...)
	}
}

// invalidate evicts from the sub-frontier cache exactly the traced
// windows containing a dirtied pin — their keys encode geometry the edit
// changed, so this net can never look them up again; evicting them
// precisely keeps live windows clear of the cache's wholesale capacity
// flush. Each distinct key is removed at most once; only keys actually
// resident count as invalidations.
func (s *Session) invalidate(trace []core.TraceWindow, geo []bool) {
	var n int64
	removed := make(map[string]bool)
	for _, w := range trace {
		if removed[w.Key] {
			continue
		}
		touched := false
		for _, p := range w.Pins {
			if p < len(geo) && geo[p] {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		removed[w.Key] = true
		if s.copts.Cache.Remove(w.Key) {
			n++
		}
	}
	s.cacheInvalidations.Add(n)
}

// solve answers net through the net-level memo when possible and by a
// full (warm-cache) route otherwise. The returned items and trace are
// fresh copies owned by the caller.
func (s *Session) solve(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], []core.TraceWindow, error) {
	if s.memo == nil || net.Degree() < 2 {
		return s.routeFull(ctx, net)
	}
	var key hanan.Key
	key.Set(net, core.NetCanonical(net.Degree(), s.copts.Lambda, s.copts.Table))
	if items, trace, ok := s.memo.Get(&key); ok {
		s.ecoHits.Add(1)
		return items, trace, nil
	}
	items, trace, err := s.routeFull(ctx, net)
	if err != nil {
		return nil, nil, err
	}
	s.memo.Put(&key, items, trace)
	return items, trace, nil
}

// routeFull runs the full router on net, recording the consulted
// sub-frontier windows when the session has a cache.
func (s *Session) routeFull(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], []core.TraceWindow, error) {
	s.fullReroutes.Add(1)
	copts := s.copts
	var tr *core.SubTrace
	if copts.Cache != nil {
		tr = &core.SubTrace{}
		copts.Trace = tr
	}
	items, err := core.RouteContext(ctx, net, copts)
	if err != nil {
		return nil, nil, err
	}
	var windows []core.TraceWindow
	if tr != nil {
		windows = tr.Windows
	}
	return items, windows, nil
}

// MemoLen returns the number of resident net-memo entries (0 with
// NoCache).
func (s *Session) MemoLen() int {
	if s.memo == nil {
		return 0
	}
	return s.memo.Len()
}

func copyNet(n tree.Net) tree.Net {
	return tree.Net{Pins: append([]geom.Point(nil), n.Pins...)}
}

func cloneItems(items []pareto.Item[*tree.Tree]) []pareto.Item[*tree.Tree] {
	out := make([]pareto.Item[*tree.Tree], len(items))
	for i, it := range items {
		out[i] = pareto.Item[*tree.Tree]{Sol: it.Sol, Val: it.Val.Clone()}
	}
	return out
}
