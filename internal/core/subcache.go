package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// DefaultSubCacheEntries bounds a SubCache built with NewSubCache(0).
// A cached window holds at most a frontier of small trees (degree ≤ λ),
// so the default is generous while staying far below batch memory.
const DefaultSubCacheEntries = 1 << 14

// SubCacheShards is the number of independent shards a SubCache splits
// its key space over (a power of two; keys select their shard by hash).
// Each shard has its own mutex, bounded map and hit/miss counters, so
// workers touching different shards never serialize on each other — the
// single-mutex layout flattened RouteAll scaling well before the worker
// count reached the core count. 32 shards keep the per-worker collision
// probability negligible at any realistic pool size while costing only a
// few kilobytes of fixed overhead.
const SubCacheShards = 32

// SubCache memoizes exact frontiers under hanan.Key. It is the local
// search's window memo: the exact Pareto frontier of a
// source-plus-selected-pins window. Windows recur both across iterations
// of one net (the policy re-selects overlapping windows as the base tree
// converges) and across nets of a batch (the engine shares one SubCache
// over all workers), so the memo converts repeated exact sub-net solves —
// the dominant cost of §V's local search — into tree clones plus an
// isometry transform. The ECO session keeps a second SubCache as its
// whole-net memo, whose entries also carry the route's window trace.
//
// Windows are keyed at the strongest level that stays byte-exact:
//
//   - Degrees the lookup table covers use the canonical symmetry key:
//     lut.Table.Query is equivariant under the 8 dihedral symmetries, so
//     any window in the same symmetry class yields the
//     transformed-identical frontier.
//
//   - Degrees answered by the exact DP use a translation key: the DP's
//     tie-breaks are not reflection invariant, so only pure translates
//     are guaranteed to reproduce its trees exactly.
//
// Stored items live in the frame of the first net that produced them
// (pre-relabel, sub-net pin indices); hits clone and map them through
// the hanan.Isometry connecting the two nets. A SubCache is safe for
// concurrent use; internally the key space is split over SubCacheShards
// independently locked shards, so concurrent lookups and inserts only
// contend when they hash to the same shard. Sharding is invisible in the
// results: cache state never affects output bytes (the NoCache/cold/warm
// differentials enforce it), only which mutex a given key takes.
type SubCache struct {
	// perShard is each shard's entry bound; the flush-at-capacity
	// eviction runs per shard, so total residency stays within the
	// NewSubCache capacity while eviction never takes more than one
	// shard lock.
	perShard int
	shards   [SubCacheShards]subShard
}

// subShard is one lock's worth of SubCache: a bounded map plus the
// hit/miss counters of the keys that hash here. Counters live with the
// shard (not on the SubCache) so hot updates from different workers
// usually land on different cache lines; the trailing pad keeps
// neighbouring shards from sharing a line (false sharing turns
// independent locks back into one contended line).
type subShard struct {
	mu      sync.Mutex
	entries map[string]*subEntry

	hits, misses atomic.Int64

	_ [88]byte // pad to 128 bytes: two cache lines, no neighbour sharing
}

// shardOf selects the owning shard of a key by FNV-1a, folding the
// hash's high bits in so the index bits mix the whole key, not just its
// tail. The hash only balances load — any function of the key is
// correct — so the cheapest well-mixed one wins. Generic over the key
// representation so neither Remove's string nor Get's reused byte buffer
// is copied.
func shardOf[T ~string | ~[]byte](c *SubCache, key T) *subShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[(h^h>>32)&(SubCacheShards-1)]
}

// subEntry is one memoized frontier, in the frame of the net that
// produced it. Entries are shared by every goroutine that hits the
// cache: readers map items through the entry's isometry (a fresh tree)
// and copy the trace, and must never write the entry itself.
//
//patlint:shared cache-owned; concurrent readers alias these slices
type subEntry struct {
	frame hanan.Frame
	items []pareto.Item[*tree.Tree]
	// trace is the window trace of the route that produced items (ECO's
	// net memo only): window keys are translation invariant and pin
	// selections translation equivariant, so a translate's route would
	// record exactly these windows. Canonically keyed nets are small and
	// route without windows.
	trace []TraceWindow
}

// NewSubCache returns an empty memo holding at most capacity entries
// (<= 0 uses DefaultSubCacheEntries), spread evenly over SubCacheShards
// shards; the bound rounds up to a whole number of entries per shard.
func NewSubCache(capacity int) *SubCache {
	if capacity <= 0 {
		capacity = DefaultSubCacheEntries
	}
	perShard := (capacity + SubCacheShards - 1) / SubCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SubCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*subEntry)
	}
	return c
}

// Counters returns the cumulative hit/miss counts, summed over shards.
func (c *SubCache) Counters() (hits, misses int64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// Len returns the number of resident entries, summed over shards.
func (c *SubCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Remove evicts the entry stored under key, reporting whether one was
// resident. It is the precise-invalidation primitive of ECO mode
// (internal/eco): entries are keyed geometrically and therefore never
// become stale, but windows whose pins an edit moved will never be
// looked up again under their old keys, and letting them accumulate
// would trigger Put's wholesale capacity flush — evicting dead keys
// one by one keeps the live ones resident. The key's hash identifies the
// owning shard, so an invalidation locks exactly one shard and never
// stalls lookups elsewhere in the cache. The hit/miss counters are
// untouched: eviction is not cache traffic.
func (c *SubCache) Remove(key string) bool {
	s := shardOf(c, key)
	s.mu.Lock()
	_, ok := s.entries[key]
	if ok {
		delete(s.entries, key)
	}
	s.mu.Unlock()
	return ok
}

// TraceWindow records one sub-frontier window a local search consulted:
// the memo key it was cached (or answered) under, and the parent-net pin
// indices the window covered. Pin 0 (the source) is always present.
type TraceWindow struct {
	Key  string
	Pins []int
}

// SubTrace accumulates the sub-frontier windows of one Route call when
// Options.Trace is set. The incremental rerouter (internal/eco) keeps the
// trace alongside the routed net so a later edit can evict exactly the
// cached windows the edit's dirty pins touch. A SubTrace is owned by a
// single Route call and needs no locking.
type SubTrace struct {
	Windows []TraceWindow
}

// Get returns the items stored under k, mapped onto k's net through the
// isometry from the entry's frame, and a copy of the entry's trace. A
// found entry counts as a hit only once the isometry is verified: an
// equal key whose isometry cannot be derived would be a key collision,
// and it counts as a miss so the caller recomputes rather than trusts
// the entry.
func (c *SubCache) Get(k *hanan.Key) ([]pareto.Item[*tree.Tree], []TraceWindow, bool) {
	s := shardOf(c, k.Bytes())
	s.mu.Lock()
	e := s.entries[string(k.Bytes())]
	s.mu.Unlock()
	if e != nil {
		if iso, err := k.IsometryFrom(e.frame); err == nil {
			s.hits.Add(1)
			out := make([]pareto.Item[*tree.Tree], len(e.items))
			for i, it := range e.items {
				out[i] = pareto.Item[*tree.Tree]{Sol: it.Sol, Val: iso.ApplyTree(it.Val)}
			}
			return out, slices.Clone(e.trace), true
		}
	}
	s.misses.Add(1)
	return nil, nil, false
}

// Put stores copies of items (trees in k's net frame) and trace under k.
// The first writer wins: concurrent workers may compute the same net,
// and any of the results is an equally valid representative (they are
// byte-identical up to the entry's isometry frame). At capacity the
// shard's map is flushed whole — correctness never depends on
// residency, only speed does — and the flush never takes another
// shard's lock.
func (c *SubCache) Put(k *hanan.Key, items []pareto.Item[*tree.Tree], trace []TraceWindow) {
	e := &subEntry{frame: k.Frame(), items: make([]pareto.Item[*tree.Tree], len(items)), trace: slices.Clone(trace)}
	for i, it := range items {
		e.items[i] = pareto.Item[*tree.Tree]{Sol: it.Sol, Val: it.Val.Clone()}
	}
	s := shardOf(c, k.Bytes())
	s.mu.Lock()
	if len(s.entries) >= c.perShard {
		s.entries = make(map[string]*subEntry, c.perShard)
	}
	if _, ok := s.entries[string(k.Bytes())]; !ok {
		s.entries[string(k.Bytes())] = e
	}
	s.mu.Unlock()
}
