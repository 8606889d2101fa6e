// Package engine is the batch-routing engine: it fans a slice of nets out
// across a pool of workers, routes every net with a registered routing
// method (internal/method; PatLabor's core by default), and returns the
// per-net Pareto sets in input order regardless of completion order.
// Routing is embarrassingly parallel across nets — each net's construction
// touches no mutable shared state — so the only cross-goroutine structures
// are the lookup table (internal/lut: queries read an immutable snapshot
// through an atomic pointer without locking; file merges publish a new
// one), the shared sub-frontier memo (core.SubCache, split over
// core.SubCacheShards independently locked shards; hits are
// byte-identical to recomputation, so results never depend on cache state
// or worker interleaving) and per-worker statistics collectors merged in
// worker order.
//
// On top of the worker pool the engine runs a batch-level net dedup (see
// planDedup): nets with identical canonical form — translates, and for
// table-covered small degrees any of the 8 plane symmetries — are routed
// once and the duplicates' frontiers synthesized by an exact isometry.
// Options.NoCache disables both the memo and the dedup.
//
// Every batch runs under a context.Context: cancellation stops dispatching
// new nets immediately, aborts in-flight nets at their next iteration
// check (the method layer threads the context into the DP subset loop and
// the local-search iterations), and leaves no goroutine behind — workers
// exit once the job channel closes.
//
// Determinism contract: for every net, the engine returns exactly the
// frontier the serial method would return, byte for byte, at any worker
// count. The differential test in engine_test.go enforces this.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"patlabor/internal/core"
	"patlabor/internal/eco"
	"patlabor/internal/hier"
	"patlabor/internal/lut"
	"patlabor/internal/method"
	"patlabor/internal/pareto"
	"patlabor/internal/policy"
	"patlabor/internal/pool"
	"patlabor/internal/tree"
)

// Result is one net's routed Pareto set: objective vectors paired with
// trees, in canonical frontier order.
type Result = []pareto.Item[*tree.Tree]

// Options configures an Engine. The zero value routes with the paper's
// defaults on GOMAXPROCS workers.
type Options struct {
	// Workers is the worker-pool size; <=0 uses runtime.GOMAXPROCS(0).
	Workers int
	// Method selects the routing method by registry name (internal/method;
	// "" = "patlabor"). The PatLabor method honours the remaining options;
	// baseline methods route with their own defaults.
	Method string
	// Lambda is the small-net threshold λ (0 = core.DefaultLambda).
	Lambda int
	// Iterations overrides the local-search iteration count (0 = ⌊n/λ⌋).
	Iterations int
	// Table answers small-net queries; nil uses the shared lut.Default().
	Table *lut.Table
	// TablePath optionally loads a flat lookup-table file (.plut)
	// produced by cmd/lutgen into a private table, memory-mapped
	// read-only, with the built-in eager degrees generated behind it.
	// Ignored when Table is set.
	TablePath string
	// Params overrides the trained pin-selection policy weights.
	Params *policy.Params
	// NoCache disables the batch's caches: the sub-frontier memo shared
	// across workers (core.SubCache) and the batch-level net dedup.
	// Results are byte-identical either way; the flag exists for A-B
	// benchmarking and for memory-predictable runs. It only affects the
	// patlabor method — baselines use neither cache.
	NoCache bool
}

// Engine routes batches of nets concurrently. It is safe for concurrent
// use; statistics accumulate across RouteAll calls until Reset.
type Engine struct {
	method  method.Method
	workers int
	table   *lut.Table
	// lambda is the resolved small-net threshold; planDedup needs it to
	// decide which nets the lookup table answers (and may therefore be
	// deduped across symmetries, not just translations).
	lambda int
	// dedup enables the batch-level net dedup; set only for the patlabor
	// method with caching on (baseline methods' tie-breaks have no
	// verified equivariance contract).
	dedup bool
	// subCache is the sub-frontier memo shared by every worker and every
	// RouteAll call of this engine; nil when caching is off or the method
	// never runs the local search.
	subCache *core.SubCache
	// eco is the incremental-rerouting session (nil for baseline
	// methods). It shares subCache, so reroutes and batch routes warm
	// the same window memo.
	eco *eco.Session
	// baseEco rebases the eco counters on Reset.
	baseEco eco.Stats
	// hier collects the hierarchical router's cluster counters (nil for
	// every other method); baseHier rebases the additive ones on Reset.
	hier     *hier.Counters
	baseHier hier.CounterSnapshot
	// base subtracts table traffic that predates this engine (the lut
	// counters are per-table, and the default table is shared
	// process-wide).
	base tableCounters
	// baseSubHits/baseSubMisses rebase the sub-frontier counters on Reset
	// (the SubCache is private to the engine, but Reset must still zero
	// the snapshot).
	baseSubHits, baseSubMisses int64

	mu    sync.Mutex
	stats Stats
}

// tableCounters is one snapshot of a lookup table's atomic query counters.
type tableCounters struct {
	hits, misses, errs      int64
	evaluated, materialized int64
}

func snapshotTable(t *lut.Table) tableCounters {
	var c tableCounters
	c.hits, c.misses = t.Counters()
	c.errs = t.QueryErrors()
	c.evaluated, c.materialized = t.EvalCounters()
	return c
}

// New builds an engine, resolving the routing method against the registry
// and loading the lookup-table file (if any) exactly once up front so
// workers never race on table construction.
func New(opts Options) (*Engine, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	table := opts.Table
	if table == nil && opts.TablePath != "" {
		table = lut.New()
		if err := table.LoadFile(opts.TablePath); err != nil {
			return nil, fmt.Errorf("engine: loading table: %w", err)
		}
		for d := 2; d <= lut.DefaultEagerDegree; d++ {
			if !table.Covers(d) {
				if err := table.Generate(d, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	name := opts.Method
	if name == "" {
		name = "patlabor"
	}
	var m method.Method
	counting := table
	var subCache *core.SubCache
	var session *eco.Session
	var hierStats *hier.Counters
	dedup := false
	key := method.Key(name)
	isHier := key == "hier" || key == "hierarchical"
	lambda := 0
	if key == "patlabor" || isHier {
		var err error
		if lambda, err = core.ResolveLambda(opts.Lambda); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	if key == "patlabor" {
		if !opts.NoCache {
			subCache = core.NewSubCache(0)
			dedup = true
		}
		// PatLabor routes with this engine's resolved core options; the
		// registry entry would use the defaults.
		m = method.PatLabor(core.Options{
			Lambda:     opts.Lambda,
			Iterations: opts.Iterations,
			Table:      table,
			Params:     opts.Params,
			Cache:      subCache,
			NoCache:    opts.NoCache,
		})
		// The eco session shares the engine's table and window memo; a
		// NoCache engine gets a cacheless session (identity fast path
		// only), proving reroute results never depend on cache state.
		var err error
		session, err = eco.NewSession(core.Options{
			Lambda:     opts.Lambda,
			Iterations: opts.Iterations,
			Table:      table,
			Params:     opts.Params,
			Cache:      subCache,
			NoCache:    opts.NoCache,
		})
		if err != nil {
			return nil, err
		}
		if counting == nil {
			// Resolve the shared table now (first use generates the eager
			// degrees), so that cost lands in construction, not mid-batch.
			counting = lut.Default()
		}
	} else if isHier {
		if !opts.NoCache {
			subCache = core.NewSubCache(0)
			// The hierarchical pipeline is translation-equivariant end to
			// end (the partition compares coordinates, the port choice
			// compares distances, and the window solves inherit core's
			// contract), and nets small enough for the canonical 'S' key
			// route flat through core — so the batch dedup's guarantees
			// hold for hier exactly as for patlabor.
			dedup = true
		}
		hierStats = &hier.Counters{}
		m = method.Hier(hier.Options{
			Workers: workers,
			Core: core.Options{
				Lambda:     opts.Lambda,
				Iterations: opts.Iterations,
				Table:      table,
				Params:     opts.Params,
				Cache:      subCache,
				NoCache:    opts.NoCache,
			},
			Stats: hierStats,
		})
		if counting == nil {
			counting = lut.Default()
		}
	} else {
		mm, ok := method.Get(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown method %q (have %s)",
				name, strings.Join(method.Names(), ", "))
		}
		// Baseline methods never consult the lookup table; leave counting
		// nil (unless a table was passed explicitly) so a salt/ysd engine
		// does not pay for eager table generation.
		m = mm
	}
	e := &Engine{
		method:   m,
		workers:  workers,
		table:    counting,
		lambda:   lambda,
		dedup:    dedup,
		subCache: subCache,
		eco:      session,
		hier:     hierStats,
	}
	if counting != nil {
		e.base = snapshotTable(counting)
	}
	return e, nil
}

// Workers returns the resolved worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// Method returns the display name of the engine's routing method.
func (e *Engine) Method() string { return e.method.Name() }

// RouteAll routes every net and returns the results positionally aligned
// with nets. The lowest-index failure is returned; later nets may be left
// unrouted once a failure occurs. When ctx is cancelled (or its deadline
// expires) mid-batch, dispatch stops promptly, in-flight nets abort at
// their next iteration check, the results are nil and ctx.Err() is
// returned.
func (e *Engine) RouteAll(ctx context.Context, nets []tree.Net) ([]Result, error) {
	var assigns []dupAssign
	var dedupHits, dedupMisses int64
	if e.dedup && len(nets) > 1 {
		assigns, dedupHits, dedupMisses = e.planDedup(nets)
	}
	methodName := e.method.Name()
	out := make([]Result, len(nets))
	local := make([]paddedCollector, e.workers)
	start := time.Now()
	err := pool.Each(ctx, len(nets), e.workers, func(worker, i int) error {
		if assigns != nil && assigns[i].rep != i {
			return nil // synthesized from its representative after the pass
		}
		t0 := time.Now()
		var cands Result
		var ferr error
		pprof.Do(ctx, pprof.Labels(
			"patlabor_method", methodName,
			"patlabor_degree", degreeBucket(nets[i].Degree()),
		), func(ctx context.Context) {
			cands, ferr = e.method.Frontier(ctx, nets[i])
		})
		if ferr != nil {
			local[worker].errs++
			return fmt.Errorf("engine: net %d: %w", i, ferr)
		}
		local[worker].record(nets[i].Degree(), time.Since(t0))
		out[i] = cands
		return nil
	})
	// Synthesize the duplicates from their representatives' frontiers.
	// Serial: each is a handful of small-tree clones through an isometry.
	var dups collector
	if err == nil && assigns != nil {
		for i := range assigns {
			// The synthesis pass can span thousands of nets; a cancelled
			// batch must stop here too, not just in the worker pool.
			if err = ctx.Err(); err != nil {
				break
			}
			a := assigns[i]
			if a.rep == i {
				continue
			}
			t0 := time.Now()
			src := out[a.rep]
			res := make(Result, len(src))
			for j, item := range src {
				res[j] = pareto.Item[*tree.Tree]{Sol: item.Sol, Val: a.iso.ApplyTree(item.Val)}
			}
			out[i] = res
			dups.record(nets[i].Degree(), time.Since(t0))
		}
	}
	elapsed := time.Since(start)

	e.mu.Lock()
	for w := range local {
		e.stats.merge(methodName, &local[w].collector)
	}
	if dups.nets > 0 {
		e.stats.merge(methodName, &dups)
	}
	e.stats.DedupHits += dedupHits
	e.stats.DedupMisses += dedupMisses
	e.stats.Batches++
	e.stats.Elapsed += elapsed
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats returns a snapshot of the engine's cumulative counters. The
// lookup-table counters stay zero for engines whose method never
// consults a table.
func (e *Engine) Stats() Stats {
	var cur tableCounters
	if e.table != nil {
		cur = snapshotTable(e.table)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats.clone()
	if e.table != nil {
		s.CacheHits = cur.hits - e.base.hits
		s.CacheMisses = cur.misses - e.base.misses
		s.CacheErrors = cur.errs - e.base.errs
		s.ToposEvaluated = cur.evaluated - e.base.evaluated
		s.TreesMaterialized = cur.materialized - e.base.materialized
		s.TableColdStart, s.TableMappedBytes = e.table.LoadInfo()
	}
	if e.subCache != nil {
		h, m := e.subCache.Counters()
		s.SubFrontierHits = h - e.baseSubHits
		s.SubFrontierMisses = m - e.baseSubMisses
	}
	if e.eco != nil {
		es := e.eco.Stats()
		s.EcoHits = es.EcoHits - e.baseEco.EcoHits
		s.EcoFullReroutes = es.FullReroutes - e.baseEco.FullReroutes
		s.DirtySubtrees = es.DirtySubtrees - e.baseEco.DirtySubtrees
		s.CacheInvalidations = es.CacheInvalidations - e.baseEco.CacheInvalidations
	}
	if e.hier != nil {
		hs := e.hier.Snapshot()
		s.HierNets = hs.Nets - e.baseHier.Nets
		s.HierFlat = hs.Flat - e.baseHier.Flat
		s.HierClusters = hs.Clusters - e.baseHier.Clusters
		s.HierSingletons = hs.Singletons - e.baseHier.Singletons
		// High-water marks do not rebase.
		s.HierMaxCluster = hs.MaxCluster
		s.HierMaxLevels = hs.MaxLevels
	}
	return s
}

// Reset zeroes the engine's counters (cache counters rebase to the
// table's current values).
func (e *Engine) Reset() {
	var cur tableCounters
	if e.table != nil {
		cur = snapshotTable(e.table)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
	e.base = cur
	if e.subCache != nil {
		e.baseSubHits, e.baseSubMisses = e.subCache.Counters()
	}
	if e.eco != nil {
		e.baseEco = e.eco.Stats()
	}
	if e.hier != nil {
		e.baseHier = e.hier.Snapshot()
	}
}

// RouteAll is the one-shot convenience: build an engine and route the
// batch under ctx.
func RouteAll(ctx context.Context, nets []tree.Net, opts Options) ([]Result, error) {
	e, err := New(opts)
	if err != nil {
		return nil, err
	}
	return e.RouteAll(ctx, nets)
}
