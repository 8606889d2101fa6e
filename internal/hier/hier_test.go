package hier

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// testNets builds the differential corpus: a mix of uniform, clustered
// and mega-clustered nets across the degrees the lowered-crossover
// configuration routes hierarchically, plus degenerate shapes (duplicate
// and collinear pins).
func testNets(t *testing.T, count int) []tree.Net {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	nets := make([]tree.Net, 0, count)
	for i := 0; len(nets) < count; i++ {
		deg := 13 + rng.Intn(36)
		var net tree.Net
		switch i % 4 {
		case 0:
			net = netgen.Uniform(rng, deg, 10000)
		case 1:
			net = netgen.Clustered(rng, deg, 100000, 4000)
		case 2:
			net = netgen.MegaClustered(rng, deg, 100000, 1+rng.Intn(6), 5000)
		default:
			net = netgen.Uniform(rng, deg, 10000)
			// Degenerates: duplicate a few pins and flatten a few onto a line.
			for k := 0; k < 3 && deg > 4; k++ {
				net.Pins[1+rng.Intn(deg-1)] = net.Pins[1+rng.Intn(deg-1)]
			}
			for k := 1; k < deg; k += 5 {
				net.Pins[k].Y = net.Pins[0].Y
			}
		}
		nets = append(nets, net)
	}
	return nets
}

// diffOptions is the lowered-crossover configuration of the differential
// and determinism tests: small clusters and a λ=5 flat engine keep every
// subproblem on the LUT fast path, so 220 nets route in seconds while
// still exercising two hierarchy levels.
func diffOptions(workers int, cache *core.SubCache, noCache bool) Options {
	return Options{
		Crossover:   12,
		ClusterSize: 4,
		Workers:     workers,
		Core:        core.Options{Lambda: 5, Cache: cache, NoCache: noCache},
	}
}

func sameFrontier(t *testing.T, label string, got, want []pareto.Item[*tree.Tree]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frontier size %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Sol != want[i].Sol {
			t.Fatalf("%s: item %d sol %+v, want %+v", label, i, got[i].Sol, want[i].Sol)
		}
		a, b := got[i].Val, want[i].Val
		if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("%s: item %d tree shape differs", label, i)
		}
		for j := range a.Nodes {
			if a.Nodes[j] != b.Nodes[j] || a.Parent[j] != b.Parent[j] {
				t.Fatalf("%s: item %d node %d differs", label, i, j)
			}
		}
	}
}

// TestDifferential is the PR's byte-identity harness: 220 nets (plus two
// degree-1024 mega-nets) are routed hierarchically with every combination
// of worker count 1/8/4×GOMAXPROCS and sub-frontier memo off/cold/warm,
// and every frontier must match the serial cache-less reference node for
// node.
func TestDifferential(t *testing.T) {
	nets := testNets(t, 218)
	rng := rand.New(rand.NewSource(11))
	nets = append(nets,
		netgen.MegaClustered(rng, 1024, 1000000, 12, 30000),
		netgen.Uniform(rng, 1024, 1000000),
	)
	ctx := context.Background()
	// over oversubscribes the intra-net fan-out: 4×GOMAXPROCS workers on
	// however many cores exist, the aggressive-interleaving regime where
	// shard-level races in the sub-frontier cache would surface.
	over := 4 * runtime.GOMAXPROCS(0)
	warm1 := core.NewSubCache(0)
	warm8 := core.NewSubCache(0)
	warmOver := core.NewSubCache(0)
	for i, net := range nets {
		want, err := RouteContext(ctx, net, diffOptions(1, nil, true))
		if err != nil {
			t.Fatalf("net %d: reference: %v", i, err)
		}
		runs := []struct {
			label string
			opts  Options
		}{
			{"workers=8 cache=off", diffOptions(8, nil, true)},
			{"workers=1 cache=cold", diffOptions(1, core.NewSubCache(0), false)},
			{"workers=8 cache=cold", diffOptions(8, core.NewSubCache(0), false)},
			{fmt.Sprintf("workers=%d cache=cold", over), diffOptions(over, core.NewSubCache(0), false)},
			// The warm caches persist across all nets of the loop, so
			// later nets are answered from windows earlier nets stored.
			{"workers=1 cache=warm", diffOptions(1, warm1, false)},
			{"workers=8 cache=warm", diffOptions(8, warm8, false)},
			{fmt.Sprintf("workers=%d cache=warm", over), diffOptions(over, warmOver, false)},
		}
		for _, run := range runs {
			got, err := RouteContext(ctx, net, run.opts)
			if err != nil {
				t.Fatalf("net %d: %s: %v", i, run.label, err)
			}
			sameFrontier(t, fmt.Sprintf("net %d (degree %d): %s", i, net.Degree(), run.label), got, want)
		}
	}
}

// TestValidExact checks every returned tree against the net and its
// declared objective vector, across generators, degrees and degenerate
// shapes, and checks canonical frontier order.
func TestValidExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ev := tree.NewEvaluator()
	for _, deg := range []int{66, 100, 150, 300, 1024} {
		for gen := 0; gen < 2; gen++ {
			var net tree.Net
			if gen == 0 {
				net = netgen.MegaClustered(rng, deg, 100000, 8, 6000)
			} else {
				net = netgen.Uniform(rng, deg, 50000)
			}
			items, err := RouteContext(context.Background(), net, Options{})
			if err != nil {
				t.Fatalf("deg %d gen %d: %v", deg, gen, err)
			}
			if len(items) == 0 {
				t.Fatalf("deg %d gen %d: empty frontier", deg, gen)
			}
			for i, it := range items {
				if err := it.Val.Validate(net); err != nil {
					t.Fatalf("deg %d gen %d item %d: invalid tree: %v", deg, gen, i, err)
				}
				if got := ev.Sol(it.Val); got != it.Sol {
					t.Fatalf("deg %d gen %d item %d: declared %+v, tree evaluates to %+v",
						deg, gen, i, it.Sol, got)
				}
				if i > 0 && !(items[i].Sol.W > items[i-1].Sol.W && items[i].Sol.D < items[i-1].Sol.D) {
					t.Fatalf("deg %d gen %d: not canonical at %d: %+v then %+v",
						deg, gen, i, items[i-1].Sol, items[i].Sol)
				}
			}
		}
	}
	// All-coincident pins: every sink on top of the source.
	co := netgen.Uniform(rng, 80, 1)
	items, err := RouteContext(context.Background(), co, Options{Crossover: 20, ClusterSize: 4, Core: core.Options{Lambda: 5}})
	if err != nil {
		t.Fatalf("coincident: %v", err)
	}
	for i, it := range items {
		if err := it.Val.Validate(co); err != nil {
			t.Fatalf("coincident item %d: %v", i, err)
		}
	}
}

// TestCrossoverDispatch pins the wrapper semantics: at or below the
// crossover the result is byte-identical to the flat router with the same
// core options, and the counters attribute the net to the flat side.
func TestCrossoverDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var stats Counters
	opts := Options{Stats: &stats, Core: core.Options{NoCache: true}}
	for _, deg := range []int{2, 5, 9, 30, 64} {
		net := netgen.Clustered(rng, deg, 100000, 4000)
		got, err := RouteContext(context.Background(), net, opts)
		if err != nil {
			t.Fatalf("deg %d: %v", deg, err)
		}
		want, err := core.RouteContext(context.Background(), net, core.Options{NoCache: true})
		if err != nil {
			t.Fatalf("deg %d: flat: %v", deg, err)
		}
		sameFrontier(t, fmt.Sprintf("deg %d flat dispatch", deg), got, want)
	}
	s := stats.Snapshot()
	if s.Flat != 5 || s.Nets != 0 {
		t.Fatalf("flat dispatch counters: %+v", s)
	}
	net := netgen.MegaClustered(rng, 200, 100000, 6, 5000)
	if _, err := RouteContext(context.Background(), net, opts); err != nil {
		t.Fatal(err)
	}
	s = stats.Snapshot()
	if s.Nets != 1 {
		t.Fatalf("hierarchical net not counted: %+v", s)
	}
	if s.Clusters == 0 || s.MaxCluster < 2 || s.MaxLevels < 1 {
		t.Fatalf("cluster counters empty: %+v", s)
	}
}

// TestCancellation: an expired context aborts the fan-out and surfaces
// ctx.Err, at any worker count.
func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := netgen.MegaClustered(rng, 512, 100000, 8, 5000)
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RouteContext(ctx, net, diffOptions(workers, nil, true))
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
	}
}

// TestPartition pins the partition invariants the fuzzer also enforces,
// on structured instances.
func TestPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, deg := range []int{2, 3, 10, 65, 500, 4096} {
		for _, target := range []int{2, 4, 5, 9, 16} {
			net := netgen.MegaClustered(rng, deg, 100000, 5, 8000)
			clusters := Partition(net, target)
			seen := make(map[int]bool)
			for _, cl := range clusters {
				if len(cl) == 0 || len(cl) > target {
					t.Fatalf("deg %d target %d: cluster size %d", deg, target, len(cl))
				}
				for _, p := range cl {
					if p < 1 || p >= deg || seen[p] {
						t.Fatalf("deg %d target %d: bad or repeated pin %d", deg, target, p)
					}
					seen[p] = true
				}
				port := Port(net, cl)
				found := false
				for _, p := range cl {
					if p == port {
						found = true
					}
				}
				if !found {
					t.Fatalf("deg %d target %d: port %d not a member", deg, target, port)
				}
			}
			if len(seen) != deg-1 {
				t.Fatalf("deg %d target %d: covered %d sinks", deg, target, len(seen))
			}
			// Determinism: a second run over a fresh index slice matches.
			again := Partition(net, target)
			if len(again) != len(clusters) {
				t.Fatalf("deg %d target %d: cluster count changed", deg, target)
			}
			for i := range again {
				if len(again[i]) != len(clusters[i]) {
					t.Fatalf("deg %d target %d: cluster %d size changed", deg, target, i)
				}
				for j := range again[i] {
					if again[i][j] != clusters[i][j] {
						t.Fatalf("deg %d target %d: cluster %d order changed", deg, target, i)
					}
				}
			}
		}
	}
}
