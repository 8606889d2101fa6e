package engine

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// LatencyBuckets is the number of power-of-two latency histogram buckets:
// bucket k counts nets whose routing took [2^k, 2^(k+1)) microseconds
// (bucket 0 also absorbs sub-microsecond routes, the last bucket absorbs
// everything slower).
const LatencyBuckets = 24

// DegreeLatency is the per-degree routing-latency histogram of one
// engine.
type DegreeLatency struct {
	Degree  int
	Nets    int64
	Total   time.Duration
	Max     time.Duration
	Buckets [LatencyBuckets]int64
}

// Mean returns the mean per-net routing time at this degree.
func (d DegreeLatency) Mean() time.Duration {
	if d.Nets == 0 {
		return 0
	}
	return d.Total / time.Duration(d.Nets)
}

// bucketOf maps a duration to its histogram bucket.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us)) - 1
	if b >= LatencyBuckets {
		b = LatencyBuckets - 1
	}
	return b
}

// MethodStats is one routing method's cumulative share of an engine's
// traffic: how many nets it routed successfully and how many of its
// routes failed.
type MethodStats struct {
	Name   string
	Nets   int64
	Errors int64
}

// Stats is a snapshot of an engine's cumulative counters.
type Stats struct {
	NetsRouted  int64
	Errors      int64
	Batches     int64
	Elapsed     time.Duration // wall clock summed over RouteAll calls
	Busy        time.Duration // per-net routing time summed over workers
	CacheHits   int64         // lookup-table pattern hits
	CacheMisses int64         // lookup-table fallbacks to the exact DP
	CacheErrors int64         // lookup-table hits that failed during instantiation
	// ToposEvaluated / TreesMaterialized expose the symbolic fast path's
	// savings: stored topologies whose (w, d) was evaluated by coefficient
	// dot products versus frontier survivors actually built as trees.
	ToposEvaluated    int64
	TreesMaterialized int64
	// SubFrontierHits / SubFrontierMisses count the local search's
	// sub-frontier memo traffic (core.SubCache, shared across the batch):
	// λ-pin windows answered by transforming a previously solved window
	// versus windows solved from scratch.
	SubFrontierHits   int64
	SubFrontierMisses int64
	// DedupHits / DedupMisses count the batch-level net dedup: nets
	// answered by transforming an identical (translation- or
	// symmetry-equivalent) batch-mate's frontier versus nets the dedup
	// layer examined but had to route.
	DedupHits   int64
	DedupMisses int64
	// EcoHits / EcoFullReroutes count the incremental-rerouting session's
	// traffic (internal/eco): tracked/rerouted nets answered without
	// running the router (cancelled edits, net-memo isometry hits) versus
	// full warm-cache reroutes. EcoHits + EcoFullReroutes equals the
	// session's Track + Reroute calls.
	EcoHits         int64
	EcoFullReroutes int64
	// DirtySubtrees counts the subtree roots edits dirtied across
	// previous frontiers' trees; CacheInvalidations counts the
	// sub-frontier cache keys reroutes evicted precisely (windows whose
	// geometry an edit changed).
	DirtySubtrees      int64
	CacheInvalidations int64
	// Hier* expose the hierarchical router's traffic (internal/hier,
	// method "hier" only): nets above the crossover routed via clustered
	// two-level trees versus nets handed straight to the flat router;
	// cluster subproblems solved (plus single-pin clusters needing none);
	// and the lifetime high-water marks for cluster size and recursion
	// depth (not rebased by Reset).
	HierNets       int64
	HierFlat       int64
	HierClusters   int64
	HierSingletons int64
	HierMaxCluster int64
	HierMaxLevels  int64
	// TableColdStart is the wall-clock time the engine's lookup table
	// spent loading from disk (flat open+map), and
	// TableMappedBytes the bytes it currently memory-maps: together the
	// cold-start-to-first-query picture of the flat zero-copy format.
	// Neither rebases on Reset — they describe the table, not the batch.
	TableColdStart   time.Duration
	TableMappedBytes int64
	// Methods breaks NetsRouted/Errors down per routing method, sorted by
	// method name. A single engine routes with one method, but counters
	// survive Reset-free engine reuse and merge across batches.
	Methods []MethodStats
	Degrees []DegreeLatency
}

// collector is one worker's private accumulator; workers never share one,
// so recording needs no synchronisation.
type collector struct {
	nets    int64
	errs    int64
	busy    time.Duration
	degrees map[int]*DegreeLatency
}

// paddedCollector is the element type of a batch's per-worker collector
// slice. The bare collector is 32 bytes, so adjacent workers' hot
// counters would share a 64-byte cache line and every record() would
// ping-pong the line between cores — private data, shared line. The pad
// rounds each element up to 128 bytes (two lines, covering adjacent-line
// prefetchers) so the no-synchronisation promise of collector holds at
// the hardware level too. Merging at batch end stays deterministic:
// collectors are folded in worker-index order regardless of which worker
// finished first.
type paddedCollector struct {
	collector
	_ [96]byte
}

// degreeBin coarsens large degrees for the per-degree histograms: exact
// below 65, then one bin per decade boundary (≤100, ≤1000, ≤10000,
// above), so a mega-net batch (internal/hier territory, degrees 10³–10⁴)
// keeps the Degrees table at a bounded row count instead of one row per
// distinct huge degree.
func degreeBin(n int) int {
	switch {
	case n <= 64:
		return n
	case n <= 100:
		return 100
	case n <= 1000:
		return 1000
	case n <= 10000:
		return 10000
	default:
		return 100000
	}
}

func (c *collector) record(degree int, d time.Duration) {
	degree = degreeBin(degree)
	c.nets++
	c.busy += d
	if c.degrees == nil {
		c.degrees = map[int]*DegreeLatency{}
	}
	dl := c.degrees[degree]
	if dl == nil {
		dl = &DegreeLatency{Degree: degree}
		c.degrees[degree] = dl
	}
	dl.Nets++
	dl.Total += d
	if d > dl.Max {
		dl.Max = d
	}
	dl.Buckets[bucketOf(d)]++
}

// merge folds one worker's collector into the stats under the routing
// method's display name (caller holds the engine lock).
func (s *Stats) merge(methodName string, c *collector) {
	s.NetsRouted += c.nets
	s.Errors += c.errs
	s.Busy += c.busy
	if c.nets > 0 || c.errs > 0 {
		i := sort.Search(len(s.Methods), func(i int) bool { return s.Methods[i].Name >= methodName })
		if i == len(s.Methods) || s.Methods[i].Name != methodName {
			s.Methods = append(s.Methods, MethodStats{})
			copy(s.Methods[i+1:], s.Methods[i:])
			s.Methods[i] = MethodStats{Name: methodName}
		}
		s.Methods[i].Nets += c.nets
		s.Methods[i].Errors += c.errs
	}
	for deg, dl := range c.degrees {
		i := sort.Search(len(s.Degrees), func(i int) bool { return s.Degrees[i].Degree >= deg })
		if i == len(s.Degrees) || s.Degrees[i].Degree != deg {
			s.Degrees = append(s.Degrees, DegreeLatency{})
			copy(s.Degrees[i+1:], s.Degrees[i:])
			s.Degrees[i] = DegreeLatency{Degree: deg}
		}
		dst := &s.Degrees[i]
		dst.Nets += dl.Nets
		dst.Total += dl.Total
		if dl.Max > dst.Max {
			dst.Max = dl.Max
		}
		for b := range dl.Buckets {
			dst.Buckets[b] += dl.Buckets[b]
		}
	}
}

func (s Stats) clone() Stats {
	c := s
	c.Methods = append([]MethodStats(nil), s.Methods...)
	c.Degrees = append([]DegreeLatency(nil), s.Degrees...)
	return c
}

// Speedup is the ratio of summed per-net routing time to wall-clock time:
// the effective parallelism the batch achieved. Per-net times are wall
// clock as seen by each worker, so when the pool is oversubscribed
// (workers > GOMAXPROCS) they include scheduler wait and the ratio
// overstates true CPU parallelism.
func (s Stats) Speedup() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Elapsed)
}

// String renders a compact multi-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nets routed   %d (%d errors, %d batches)\n", s.NetsRouted, s.Errors, s.Batches)
	for _, m := range s.Methods {
		fmt.Fprintf(&b, "method %-12s %6d nets", m.Name, m.Nets)
		if m.Errors > 0 {
			fmt.Fprintf(&b, "  %d errors", m.Errors)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "wall / busy   %s / %s (%.2fx effective parallelism)\n",
		s.Elapsed.Round(time.Microsecond), s.Busy.Round(time.Microsecond), s.Speedup())
	if s.TableColdStart > 0 || s.TableMappedBytes > 0 {
		fmt.Fprintf(&b, "LUT load      %s cold start", s.TableColdStart.Round(time.Microsecond))
		if s.TableMappedBytes > 0 {
			fmt.Fprintf(&b, ", %d bytes mapped", s.TableMappedBytes)
		}
		fmt.Fprintf(&b, "\n")
	}
	total := s.CacheHits + s.CacheMisses
	if total > 0 {
		fmt.Fprintf(&b, "LUT cache     %d hits / %d misses (%.1f%% hit rate", s.CacheHits, s.CacheMisses,
			100*float64(s.CacheHits)/float64(total))
		if s.CacheErrors > 0 {
			fmt.Fprintf(&b, ", %d errors", s.CacheErrors)
		}
		fmt.Fprintf(&b, ")\n")
	}
	if s.ToposEvaluated > 0 {
		fmt.Fprintf(&b, "LUT symbolic  %d topologies evaluated, %d trees materialized (%.1f%% skipped)\n",
			s.ToposEvaluated, s.TreesMaterialized,
			100*(1-float64(s.TreesMaterialized)/float64(s.ToposEvaluated)))
	}
	if sub := s.SubFrontierHits + s.SubFrontierMisses; sub > 0 {
		fmt.Fprintf(&b, "sub-frontier  %d hits / %d misses (%.1f%% hit rate)\n",
			s.SubFrontierHits, s.SubFrontierMisses, 100*float64(s.SubFrontierHits)/float64(sub))
	}
	if ded := s.DedupHits + s.DedupMisses; ded > 0 {
		fmt.Fprintf(&b, "net dedup     %d duplicates / %d unique (%.1f%% of batch deduped)\n",
			s.DedupHits, s.DedupMisses, 100*float64(s.DedupHits)/float64(ded))
	}
	if eco := s.EcoHits + s.EcoFullReroutes; eco > 0 {
		fmt.Fprintf(&b, "eco           %d hits / %d full reroutes (%.1f%% incremental)\n",
			s.EcoHits, s.EcoFullReroutes, 100*float64(s.EcoHits)/float64(eco))
		fmt.Fprintf(&b, "eco dirty     %d dirty subtrees, %d cache invalidations\n",
			s.DirtySubtrees, s.CacheInvalidations)
	}
	if s.HierNets > 0 || s.HierFlat > 0 {
		fmt.Fprintf(&b, "hier          %d hierarchical / %d flat nets, %d clusters + %d singletons\n",
			s.HierNets, s.HierFlat, s.HierClusters, s.HierSingletons)
		fmt.Fprintf(&b, "hier shape    max cluster %d pins, max depth %d levels\n",
			s.HierMaxCluster, s.HierMaxLevels)
	}
	for _, d := range s.Degrees {
		// Rows past 64 are decade bins (see degreeBin): label the upper bound.
		label := fmt.Sprintf("%-5d", d.Degree)
		if d.Degree > 64 {
			label = fmt.Sprintf("≤%-4d", d.Degree)
		}
		fmt.Fprintf(&b, "degree %s  %6d nets  mean %-10s max %s\n",
			label, d.Nets, d.Mean().Round(time.Microsecond), d.Max.Round(time.Microsecond))
	}
	return b.String()
}
