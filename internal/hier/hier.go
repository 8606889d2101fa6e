// Package hier routes huge nets (degree 10³–10⁴) hierarchically, in the
// style of Held–Kämmerling two-level rectilinear Steiner trees: the sinks
// are partitioned into geometric clusters (recursive median split, see
// Partition), a top-level tree is routed over the source plus one
// representative "port" per cluster, each cluster becomes a small
// subproblem rooted at its port — a perfect lookup-table-degree window
// answered through core.WindowFrontier, hitting the symbolic LUT path and
// the shared sub-frontier memo — and the per-cluster Pareto frontiers are
// stitched onto the top-level frontier with the ⊕ combination of
// internal/pareto.
//
// The delay algebra is exact int64 throughout: a top-level tree T with
// port delays p_i (path length from the source to cluster i's port) and a
// frontier pick (w_i, d_i) for every cluster combine to
//
//	W = w(T) + Σ_i w_i        D = max_i (p_i + d_i)
//
// which is precisely the wirelength and worst sink delay of the grafted
// tree: cluster trees are rooted at their port pin, so grafting merges
// the root with the top tree's port node and every cluster-internal sink
// s has delay p_i + d(port→s); the port's own sink delay p_i is covered
// because d_i ≥ 0. The fold over clusters is one pareto.Join per cluster,
// with the port delay p_i as the walk's delay offset, capped to MaxSet:
// Join visits only the Pareto-optimal picks, each from exactly one pair,
// so only those get a cons-list choice cell (memory stays linear in the
// live frontier), and only the final survivors are materialized as
// trees.
//
// Cluster subproblems are independent, so they fan out over an
// internal/pool worker pool — the intra-net parallelism that lets one
// 10k-pin net saturate all cores. Clusters are solved into per-index
// slots and every later step (top-level routing, the combination fold,
// materialization) runs serially in the deterministic cluster order, so
// results are byte-identical at any worker count and with the sub-frontier
// memo cold, warm, or absent — the standing invariant, enforced by the
// differential test in this package.
package hier

import (
	"context"
	"fmt"
	"runtime"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/tree"
)

// DefaultCrossover is the degree above which nets route hierarchically:
// the flat local search tops out around degree 64 in the benchmarks
// (BenchmarkLocalSearch), and the quality regression test pins the
// hierarchical frontiers to it at 64–128.
const DefaultCrossover = 64

// DefaultMaxSet caps the Pareto-set size carried per cluster and per
// combination step.
const DefaultMaxSet = 24

// MinClusterSize floors the adaptive cluster-size choice: clusters of 2–3
// pins make the top-level net nearly as big as the original.
const MinClusterSize = 4

// Options configures the hierarchical router. The zero value routes with
// the defaults: crossover 64, adaptive LUT-sized clusters, GOMAXPROCS
// workers.
type Options struct {
	// Crossover: nets of degree ≤ Crossover are handed to the flat router
	// (core.RouteContext) unchanged; larger nets route hierarchically.
	// 0 means DefaultCrossover. Values below ClusterSize+2 are lifted to
	// it so the hierarchical path always has a real partition.
	Crossover int
	// ClusterSize is the target cluster size of the recursive median
	// partition. 0 picks the largest degree the lookup table answers
	// (clamped to [MinClusterSize, λ]) so every cluster subproblem hits
	// the symbolic fast path; explicit values are clamped to
	// [2, dw.MaxExactDegree].
	ClusterSize int
	// MaxSet caps the Pareto-set size carried per cluster, per
	// combination step, and in the final frontier (0 = DefaultMaxSet).
	// Every kept combination costs a choice cell and, at the end, a
	// grafted tree; the cap trades frontier resolution for tractability,
	// exactly like ks.Options.MaxSet.
	MaxSet int
	// Workers sizes the worker pool fanning the cluster subproblems of
	// one net (<=0 = GOMAXPROCS). Results are byte-identical at any
	// value.
	Workers int
	// Core configures the flat router used below the crossover and for
	// every cluster and top-level subproblem: λ, lookup table, policy
	// parameters, and — crucially for batch workloads — the shared
	// sub-frontier memo (Core.Cache).
	Core core.Options
	// Stats, when set, accumulates cluster counts and recursion depths
	// across Route calls (the engine surfaces them in -stats).
	Stats *Counters
}

// config is a resolved Options.
type config struct {
	crossover   int
	clusterSize int
	maxSet      int
	workers     int
	core        core.Options
	stats       *Counters
}

func resolve(opts Options) (config, error) {
	cfg := config{core: opts.Core, stats: opts.Stats}
	if err := cfg.core.Resolve(); err != nil {
		return config{}, fmt.Errorf("hier: %w", err)
	}
	cs := opts.ClusterSize
	if cs == 0 {
		// Adaptive: the largest table-covered degree ≤ λ, so every cluster
		// window is answered symbolically (≈µs, not the ms-scale DP); when
		// the table covers nothing useful, MinClusterSize keeps the DP
		// windows tiny.
		cs = MinClusterSize
		// One scan of the table's coverage set instead of λ Covers probes
		// — with flat tables attached the covered set can reach degree 7+,
		// and every extra covered degree grows the clusters for free.
		if d := cfg.core.Table.MaxCovered(cfg.core.Lambda); d > cs {
			cs = d
		}
	}
	if cs < 2 {
		cs = 2
	}
	if cs > dw.MaxExactDegree {
		cs = dw.MaxExactDegree
	}
	cfg.clusterSize = cs
	cfg.crossover = opts.Crossover
	if cfg.crossover == 0 {
		cfg.crossover = DefaultCrossover
	}
	if cfg.crossover < cs+2 {
		cfg.crossover = cs + 2
	}
	cfg.maxSet = opts.MaxSet
	if cfg.maxSet == 0 {
		cfg.maxSet = DefaultMaxSet
	}
	if cfg.maxSet < 2 {
		cfg.maxSet = 2
	}
	cfg.workers = opts.Workers
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// RouteContext computes a Pareto set of routing trees for the net: flat
// through core below the crossover degree, hierarchically above it. Items
// are in canonical frontier order. Cancellation is threaded to cluster
// granularity: the fan-out stops dispatching clusters, in-flight windows
// abort at their next check, and the combination fold checks the context
// once per cluster step.
func RouteContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	if net.Degree() == 0 {
		return nil, fmt.Errorf("hier: empty net")
	}
	cfg, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	return route(ctx, net, cfg, 0)
}

// route is one level of the hierarchy: partition the sinks, solve the
// clusters in parallel, route the top-level net over the ports (itself
// hierarchically when still above the crossover), and stitch.
func route(ctx context.Context, net tree.Net, cfg config, level int) ([]pareto.Item[*tree.Tree], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := net.Degree()
	if n <= cfg.crossover {
		if cfg.stats != nil && level == 0 {
			cfg.stats.Flat.Add(1)
		}
		return core.RouteContext(ctx, net, cfg.core)
	}
	if cfg.stats != nil {
		if level == 0 {
			cfg.stats.Nets.Add(1)
		}
		maxInto(&cfg.stats.MaxLevels, int64(level+1))
	}
	clusters := Partition(net, cfg.clusterSize)
	ports := make([]int, len(clusters))
	for i, cl := range clusters {
		ports[i] = Port(net, cl)
		if cfg.stats != nil {
			maxInto(&cfg.stats.MaxCluster, int64(len(cl)))
		}
	}
	// Bottom level: one exact window per non-singleton cluster, rooted at
	// its port, fanned out across the pool. Workers write only their own
	// index's slot; the cluster order is fixed by the serial partition
	// above, so the result is byte-identical at any worker count.
	fronts := make([][]pareto.Item[*tree.Tree], len(clusters))
	err := pool.Each(ctx, len(clusters), cfg.workers, func(_, i int) error {
		cl := clusters[i]
		if len(cl) == 1 {
			if cfg.stats != nil {
				cfg.stats.Singletons.Add(1)
			}
			return nil // the top-level tree reaches the port itself
		}
		pins := make([]int, 0, len(cl))
		pins = append(pins, ports[i])
		for _, p := range cl {
			if p != ports[i] {
				pins = append(pins, p)
			}
		}
		items, werr := core.WindowFrontier(ctx, net, pins, cfg.core)
		if werr != nil {
			return werr
		}
		fronts[i] = pareto.CapItems(items, cfg.maxSet)
		if cfg.stats != nil {
			cfg.stats.Clusters.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Top level: the source plus one port per cluster. The partition
	// guarantees strictly fewer pins than net (clusters average ≥ 1.5
	// pins), so the recursion terminates; when the port count is still
	// above the crossover this recurses into another cluster/top split.
	topPins := make([]int, 0, len(clusters)+1)
	topPins = append(topPins, 0)
	topPins = append(topPins, ports...)
	topNet := tree.Net{Pins: make([]geom.Point, len(topPins))}
	for i, p := range topPins {
		topNet.Pins[i] = net.Pins[p]
	}
	topItems, err := route(ctx, topNet, cfg, level+1)
	if err != nil {
		return nil, err
	}
	topItems = pareto.CapItems(topItems, cfg.maxSet)
	return combine(ctx, topNet, topPins, topItems, ports, fronts, cfg)
}

// choice is a persistent cons cell recording one cluster's frontier pick;
// partial combinations share tails, so the fold's memory stays linear in
// the live frontier instead of quadratic in cluster count.
type choice struct {
	cluster int32
	item    int32
	prev    *choice
}

// comboRef names one full combination: a top-level tree plus a pick per
// non-singleton cluster (clusters absent from the list picked item 0).
type comboRef struct {
	top   int
	picks *choice
}

// combine folds the per-cluster frontiers onto each top-level tree with
// the ⊕ delay algebra (see the package comment), Pareto-filters across
// all top-level trees, and materializes only the surviving combinations
// by grafting the chosen cluster trees at their port nodes.
func combine(ctx context.Context, topNet tree.Net, topPins []int, topItems []pareto.Item[*tree.Tree], ports []int, fronts [][]pareto.Item[*tree.Tree], cfg config) ([]pareto.Item[*tree.Tree], error) {
	ev := tree.GetEvaluator()
	defer tree.PutEvaluator(ev)
	// The clusters' objective vectors, the walk's right operands, cluster
	// ci's at ys[at[ci]:at[ci+1]]. A singleton cluster's port is its only
	// pin: its one tree is empty.
	var ys []pareto.Sol
	at := make([]int, len(fronts)+1)
	for ci, front := range fronts {
		if front == nil {
			ys = append(ys, pareto.Sol{})
		}
		ys = pareto.AppendSols(ys, front)
		at[ci+1] = len(ys)
	}
	final := &pareto.Set[comboRef]{}
	var accSols []pareto.Sol
	var walk []pareto.Pair
	for ti, top := range topItems {
		// delays[k] is the top-tree path length from the source to sink k
		// of topNet — cluster k-1's port delay p_{k-1}.
		delays := ev.SinkDelaysInto(top.Val, topNet.Degree())
		acc := []pareto.Item[*choice]{{Sol: pareto.Sol{W: top.Sol.W, D: 0}}}
		for ci, front := range fronts {
			// There are up to n/clusterSize clusters: honour cancellation
			// per cluster.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// acc ⊕ (front + p): the cluster's delays start at its port,
			// p below the source.
			accSols = pareto.AppendSols(accSols[:0], acc)
			walk = pareto.Join(walk[:0], accSols, ys[at[ci]:at[ci+1]], 0, 0, delays[ci+1])
			next := make([]pareto.Item[*choice], len(walk))
			for k, w := range walk {
				pick := acc[w.A].Val
				if front != nil {
					pick = &choice{cluster: int32(ci), item: w.B, prev: pick}
				}
				next[k] = pareto.Item[*choice]{Sol: w.Sol, Val: pick}
			}
			acc = pareto.CapItems(next, cfg.maxSet)
		}
		for _, a := range acc {
			final.Add(a.Sol, comboRef{top: ti, picks: a.Val})
		}
	}
	picked := pareto.CapItems(final.Items(), cfg.maxSet)
	refined := &pareto.Set[*tree.Tree]{}
	chosen := make([]int32, len(fronts))
	// portNode[ci] is the top-tree node realising cluster ci's port (the
	// last one, should the port appear twice), -1 when it is missing.
	portNode := make([]int, len(fronts))
	for _, it := range picked {
		// Materialization clones and grafts a full-size tree per survivor.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range chosen {
			chosen[i] = 0
		}
		for c := it.Val.picks; c != nil; c = c.prev {
			chosen[c.cluster] = c.item
		}
		top := topItems[it.Val.top].Val
		size := top.Len()
		for ci, front := range fronts {
			if front != nil {
				size += front[chosen[ci]].Val.Len()
			}
		}
		t := top.CloneCap(size)
		if err := t.RelabelPins(topPins); err != nil {
			return nil, err
		}
		for i := range portNode {
			portNode[i] = -1
		}
		for i, nd := range top.Nodes {
			// Top-net pin k > 0 is cluster k-1's port.
			if nd.Pin > 0 {
				portNode[nd.Pin-1] = i
			}
		}
		for ci, front := range fronts {
			if front == nil {
				continue
			}
			if portNode[ci] < 0 {
				return nil, fmt.Errorf("hier: port pin %d missing from top-level tree", ports[ci])
			}
			t.GraftWith(front[chosen[ci]].Val, portNode[ci], ev)
		}
		// The grafted tree realises the folded (W, D) exactly; Steinerize
		// then shaves wirelength where top-level and cluster wires run in
		// parallel, leaving every source-sink path length unchanged — so
		// the re-evaluated solution dominates-or-equals the folded one and
		// the re-filter below keeps the frontier canonical.
		t.SteinerizeWith(ev)
		refined.Add(ev.Sol(t), t)
	}
	return refined.Items(), nil
}
