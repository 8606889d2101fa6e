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
	// Ignored when Table is set. Only the patlabor and hier methods open
	// it: baselines ignore TablePath as they ignore Table.
	TablePath string
	// Params overrides the trained pin-selection policy weights.
	Params *policy.Params
	// NoCache disables the batch's caches: the sub-frontier memo shared
	// across workers (core.SubCache) and the batch-level net dedup.
	// Results are byte-identical either way; the flag exists for A-B
	// benchmarking and for memory-predictable runs. It affects the
	// patlabor and hier methods, which use both caches (patlabor's eco
	// session also drops its net memo); baselines use neither.
	NoCache bool
}

// Engine routes batches of nets concurrently. It is safe for concurrent
// use; statistics accumulate across RouteAll calls until Reset.
type Engine struct {
	method  method.Method
	workers int
	// opts is the one routing configuration: the patlabor method, the eco
	// session and the hier router all route with it. For those methods it
	// is resolved (λ and Table set), and Cache is the sub-frontier memo
	// shared by every worker and every batch, nil iff NoCache; a non-nil
	// Cache also enables the batch-level net dedup (baseline methods'
	// tie-breaks have no verified equivariance contract). For baseline
	// methods it is unresolved, so Table is the table passed in, if any —
	// the only table whose traffic the engine then counts.
	opts core.Options
	// eco is the incremental-rerouting session (patlabor method only); it
	// shares opts.Cache, so reroutes and batch routes warm the same window
	// memo. hier collects the hierarchical router's cluster counters (hier
	// method only).
	eco  *eco.Session
	hier *hier.Counters
	// base holds the counters the engine reads but does not own (see
	// readExternal) as of New or the last Reset; Stats subtracts it.
	base Stats

	mu    sync.Mutex
	stats Stats
}

// New builds an engine, resolving the routing method against the registry
// and loading the lookup-table file (if any) exactly once up front so
// workers never race on table construction.
func New(opts Options) (*Engine, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	copts := core.Options{
		Lambda:     opts.Lambda,
		Iterations: opts.Iterations,
		Table:      opts.Table,
		Params:     opts.Params,
		NoCache:    opts.NoCache,
	}
	name := opts.Method
	if name == "" {
		name = "patlabor"
	}
	e := &Engine{workers: workers}
	switch key := method.Key(name); key {
	case "patlabor", "hier", "hierarchical":
		if copts.Table == nil && opts.TablePath != "" {
			t, err := lut.Open(opts.TablePath)
			if err != nil {
				return nil, fmt.Errorf("engine: loading table: %w", err)
			}
			copts.Table = t
		}
		// Resolving the shared table now (first use generates the eager
		// degrees) lands that cost in construction, not mid-batch.
		if err := copts.Resolve(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		if !opts.NoCache {
			copts.Cache = core.NewSubCache(0)
		}
		if key == "patlabor" {
			e.method = method.PatLabor(copts)
			// A NoCache engine gets a cacheless session (identity fast path
			// only), proving reroute results never depend on cache state.
			session, err := eco.NewSession(copts)
			if err != nil {
				return nil, err
			}
			e.eco = session
		} else {
			// The hierarchical pipeline is translation-equivariant end to
			// end (the partition compares coordinates, the port choice
			// compares distances, and the window solves inherit core's
			// contract), and nets small enough for the canonical 'S' key
			// route flat through core — so the batch dedup's guarantees
			// hold for hier exactly as for patlabor.
			e.hier = &hier.Counters{}
			e.method = method.Hier(hier.Options{Workers: workers, Core: copts, Stats: e.hier})
		}
	default:
		m, ok := method.Get(name)
		if !ok {
			return nil, fmt.Errorf("engine: unknown method %q (have %s)",
				name, strings.Join(method.Names(), ", "))
		}
		// Baseline methods never consult the lookup table; leaving Table
		// nil (unless one was passed) and TablePath unopened spares a
		// salt/ysd engine the file load and the eager table generation.
		e.method = m
	}
	e.opts = copts
	e.readExternal(&e.base)
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
	b := batch{n: len(nets)}
	var assigns []dupAssign
	if e.opts.Cache != nil && len(nets) > 1 {
		assigns, b.dedupHits, b.dedupMisses = e.planDedup(nets)
	}
	methodName := e.method.Name()
	out := make([]Result, len(nets))
	b.route = func(ctx context.Context, i int) (int, error) {
		var err error
		pprof.Do(ctx, pprof.Labels(
			"patlabor_method", methodName,
			"patlabor_degree", degreeBucket(nets[i].Degree()),
		), func(ctx context.Context) {
			out[i], err = e.method.Frontier(ctx, nets[i])
		})
		return nets[i].Degree(), err
	}
	if assigns != nil {
		// Synthesize the duplicates from their representatives' frontiers
		// after the pass. Serial: each is a handful of small-tree clones
		// through an isometry.
		b.skip = func(i int) bool { return assigns[i].rep != i }
		b.serial = func(dups *collector) error {
			for i, a := range assigns {
				// The synthesis pass can span thousands of nets; a cancelled
				// batch must stop here too, not just in the worker pool.
				if err := ctx.Err(); err != nil {
					return err
				}
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
			return nil
		}
	}
	if err := e.run(ctx, b); err != nil {
		return nil, err
	}
	return out, nil
}

// batch is one pass of the engine's pooled loop (see run).
type batch struct {
	// n is the batch size. route(ctx, i) handles index i and returns the
	// degree its time is recorded under.
	n     int
	route func(ctx context.Context, i int) (int, error)
	// skip, when set, marks the indices the pooled pass leaves to serial,
	// which runs after a successful pooled pass, inside the batch's wall
	// time, recording into its own collector.
	skip   func(i int) bool
	serial func(*collector) error
	// dedupHits and dedupMisses add to the stats with the collectors.
	dedupHits, dedupMisses int64
}

// run is the engine's one pooled loop: RouteAll, Track and RerouteBatch
// all route through it. Each worker times its nets into a private
// collector, and the serial pass into the last one. A failed net — a
// returned error or a panic — counts in Errors and fails the batch as
// "engine: net i: …", the lowest failed index winning (pool.Each). The
// collectors merge in order, with the batch and its wall time, under the
// engine lock.
func (e *Engine) run(ctx context.Context, b batch) error {
	methodName := e.method.Name()
	local := make([]paddedCollector, e.workers+1)
	start := time.Now()
	err := pool.Each(ctx, b.n, e.workers, func(worker, i int) error {
		if b.skip != nil && b.skip(i) {
			return nil
		}
		t0 := time.Now()
		degree, err := guard(ctx, i, b.route)
		if err != nil {
			local[worker].errs++
			return fmt.Errorf("engine: net %d: %w", i, err)
		}
		local[worker].record(degree, time.Since(t0))
		return nil
	})
	if err == nil && b.serial != nil {
		err = b.serial(&local[e.workers].collector)
	}
	elapsed := time.Since(start)

	e.mu.Lock()
	defer e.mu.Unlock()
	for w := range local {
		e.stats.merge(methodName, &local[w].collector)
	}
	e.stats.DedupHits += b.dedupHits
	e.stats.DedupMisses += b.dedupMisses
	e.stats.Batches++
	e.stats.Elapsed += elapsed
	return err
}

// guard calls route(ctx, i), returning a panic in it as its error, so a
// net that panics fails like any other net.
func guard(ctx context.Context, i int, route func(context.Context, int) (int, error)) (degree int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return route(ctx, i)
}

// Stats returns a snapshot of the engine's cumulative counters. The
// lookup-table counters stay zero for engines whose method never
// consults a table.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats.clone()
	e.readExternal(&s)
	cur, base := rebased(&s), rebased(&e.base)
	for i, c := range cur {
		*c -= *base[i]
	}
	return s
}

// Reset zeroes the engine's counters (the counters it does not own
// rebase to their current values).
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = Stats{}
	e.readExternal(&e.base)
}

// readExternal reads into s the counters the engine does not own: those
// of the lookup table, the sub-frontier memo, the eco session and the
// hier router, as cumulative totals. Fields whose source the engine
// lacks are left alone.
func (e *Engine) readExternal(s *Stats) {
	if t := e.opts.Table; t != nil {
		s.CacheHits, s.CacheMisses = t.Counters()
		s.CacheErrors = t.QueryErrors()
		s.ToposEvaluated, s.TreesMaterialized = t.EvalCounters()
		s.TableColdStart, s.TableMappedBytes = t.LoadInfo()
	}
	if c := e.opts.Cache; c != nil {
		s.SubFrontierHits, s.SubFrontierMisses = c.Counters()
	}
	if e.eco != nil {
		es := e.eco.Stats()
		s.EcoHits, s.EcoFullReroutes = es.EcoHits, es.FullReroutes
		s.DirtySubtrees, s.CacheInvalidations = es.DirtySubtrees, es.CacheInvalidations
	}
	if e.hier != nil {
		hs := e.hier.Snapshot()
		s.HierNets, s.HierFlat = hs.Nets, hs.Flat
		s.HierClusters, s.HierSingletons = hs.Clusters, hs.Singletons
		s.HierMaxCluster, s.HierMaxLevels = hs.MaxCluster, hs.MaxLevels
	}
}

// rebased points at the fields of s that rebase on Reset: every counter
// readExternal reads except the table's load info and the hier high-water
// marks, which describe the table and the router, not the batches.
func rebased(s *Stats) [15]*int64 {
	return [15]*int64{
		&s.CacheHits, &s.CacheMisses, &s.CacheErrors, &s.ToposEvaluated, &s.TreesMaterialized,
		&s.SubFrontierHits, &s.SubFrontierMisses,
		&s.EcoHits, &s.EcoFullReroutes, &s.DirtySubtrees, &s.CacheInvalidations,
		&s.HierNets, &s.HierFlat, &s.HierClusters, &s.HierSingletons,
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
