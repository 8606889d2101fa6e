package hier

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/geom"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/tree"
)

// refRoute is route with refCombine at every level.
func refRoute(ctx context.Context, net tree.Net, cfg config, level int) ([]pareto.Item[*tree.Tree], error) {
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
	topItems, err := refRoute(ctx, topNet, cfg, level+1)
	if err != nil {
		return nil, err
	}
	topItems = pareto.CapItems(topItems, cfg.maxSet)
	return refCombine(ctx, topNet, topPins, topItems, ports, fronts, cfg)
}

// refCombine is combine as it was before the fold went through
// pareto.Join: every pair of acc × front is offered to a pareto.Set.
func refCombine(ctx context.Context, topNet tree.Net, topPins []int, topItems []pareto.Item[*tree.Tree], ports []int, fronts [][]pareto.Item[*tree.Tree], cfg config) ([]pareto.Item[*tree.Tree], error) {
	ev := tree.GetEvaluator()
	defer tree.PutEvaluator(ev)
	final := &pareto.Set[comboRef]{}
	for ti, top := range topItems {
		// delays[k] is the top-tree path length from the source to sink k
		// of topNet — cluster k-1's port delay p_{k-1}.
		delays := ev.SinkDelaysInto(top.Val, topNet.Degree())
		acc := []pareto.Item[*choice]{{Sol: pareto.Sol{W: top.Sol.W, D: 0}}}
		for ci, front := range fronts {
			// The fold is |acc|×|front| work per cluster and there are up
			// to n/clusterSize clusters: honour cancellation per cluster.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := delays[ci+1]
			next := &pareto.Set[*choice]{}
			if front == nil {
				// Singleton cluster: its port is its only pin, so the pick
				// is empty and only the delay floor rises to p.
				for _, a := range acc {
					next.Add(pareto.Sol{W: a.Sol.W, D: geom.Max64(a.Sol.D, p)}, a.Val)
				}
			} else {
				for _, a := range acc {
					for j, s := range front {
						sol := pareto.Sol{
							W: a.Sol.W + s.Sol.W,
							D: geom.Max64(a.Sol.D, p+s.Sol.D),
						}
						next.Add(sol, &choice{cluster: int32(ci), item: int32(j), prev: a.Val})
					}
				}
			}
			acc = pareto.CapItems(next.Items(), cfg.maxSet)
		}
		for _, a := range acc {
			final.Add(a.Sol, comboRef{top: ti, picks: a.Val})
		}
	}
	picked := pareto.CapItems(final.Items(), cfg.maxSet)
	refined := &pareto.Set[*tree.Tree]{}
	chosen := make([]int32, len(fronts))
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
		t := topItems[it.Val.top].Val.Clone()
		if err := t.RelabelPins(topPins); err != nil {
			return nil, err
		}
		portNode := make(map[int]int, len(ports))
		for i, nd := range t.Nodes {
			if nd.Pin > 0 {
				portNode[nd.Pin] = i
			}
		}
		for ci, front := range fronts {
			if front == nil {
				continue
			}
			at, ok := portNode[ports[ci]]
			if !ok {
				return nil, fmt.Errorf("hier: port pin %d missing from top-level tree", ports[ci])
			}
			t.Graft(front[chosen[ci]].Val, at)
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

// TestCombineMatchesReference asserts that the fold through pareto.Join
// gives the same items, objective vectors and trees as the product fold
// it replaced, on seeded nets of degree 65–1024 (several hierarchy
// levels) at MaxSet 2, 3, 8 and 24, with the adaptive cluster size and
// with clusters of two, whose median splits leave singleton clusters.
func TestCombineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var nets []tree.Net
	for _, deg := range []int{65, 97, 160, 300, 1024} {
		nets = append(nets,
			netgen.Uniform(rng, deg, 100000),
			netgen.MegaClustered(rng, deg, 1000000, 1+rng.Intn(8), 20000))
	}
	if testing.Short() {
		nets = nets[:6]
	}
	ctx := context.Background()
	var stats Counters
	for _, clusterSize := range []int{0, 2} {
		for _, maxSet := range []int{2, 3, 8, 24} {
			for i, net := range nets {
				cfg, err := resolve(Options{ClusterSize: clusterSize, MaxSet: maxSet, Workers: 1, Stats: &stats})
				if err != nil {
					t.Fatal(err)
				}
				got, err := route(ctx, net, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg.stats = nil
				want, err := refRoute(ctx, net, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				sameFrontier(t, fmt.Sprintf("net %d (degree %d) cluster size %d maxSet %d", i, net.Degree(), clusterSize, maxSet), got, want)
			}
		}
	}
	if s := stats.Snapshot(); s.Singletons == 0 || s.MaxLevels < 2 {
		t.Fatalf("corpus reached %d singleton clusters and %d levels; want both singletons and two levels", s.Singletons, s.MaxLevels)
	}
}
