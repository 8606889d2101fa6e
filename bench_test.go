// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI), one testing.B benchmark per artefact, plus micro-benchmarks of
// the core engines. cmd/experiments runs the same experiments at full
// scale; these benches use the quick configuration so `go test -bench=.`
// finishes in minutes. EXPERIMENTS.md records paper-vs-measured values.
package patlabor

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/eco"
	"patlabor/internal/exp"
	"patlabor/internal/hier"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/salt"
	"patlabor/internal/tree"
	"patlabor/internal/ysd"
)

func benchDesigns(b *testing.B) (exp.Config, []netgen.Design) {
	b.Helper()
	cfg := exp.QuickConfig()
	designs := netgen.Suite(cfg.Suite)
	return cfg, designs
}

// BenchmarkFig6FrontierSize regenerates Figure 6: maximum Pareto frontier
// size per degree with a linear fit (paper: y = 2.85x − 10.9).
func BenchmarkFig6FrontierSize(b *testing.B) {
	cfg, designs := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSmall(context.Background(), cfg, designs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fit.Slope, "fit-slope")
	}
}

// BenchmarkTable2LUTGeneration regenerates Table II rows: lookup-table
// construction (degree 5 here; cmd/experiments covers 4-7 with a degree-8
// sample).
func BenchmarkTable2LUTGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := lut.New()
		if err := t.Generate(5, 0); err != nil {
			b.Fatal(err)
		}
		st := t.Stats()
		b.ReportMetric(float64(st[0].NumIndex), "indices")
		b.ReportMetric(st[0].AvgTopo(), "avg-topo")
	}
}

// BenchmarkTable3NonOptimalRatio regenerates Table III: the ratio of nets
// on which each method misses at least one Pareto-optimal solution.
func BenchmarkTable3NonOptimalRatio(b *testing.B) {
	cfg, designs := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSmall(context.Background(), cfg, designs)
		if err != nil {
			b.Fatal(err)
		}
		nets, non := 0, 0
		for _, a := range res.Agg {
			nets += a.Nets
			non += a.NonOptimal["YSD"]
		}
		if nets > 0 {
			b.ReportMetric(100*float64(non)/float64(nets), "ysd-nonopt-%")
		}
	}
}

// BenchmarkTable4SolutionCounts regenerates Table IV: the fraction of all
// Pareto-optimal solutions each method finds.
func BenchmarkTable4SolutionCounts(b *testing.B) {
	cfg, designs := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSmall(context.Background(), cfg, designs)
		if err != nil {
			b.Fatal(err)
		}
		total, salt := 0, 0
		for _, a := range res.Agg {
			total += a.FrontierSols
			salt += a.Found["SALT"]
		}
		if total > 0 {
			b.ReportMetric(float64(salt)/float64(total), "salt-fraction")
		}
	}
}

// BenchmarkFig7aSmallNets regenerates Figure 7(a): averaged Pareto curves
// and running time on non-optimal small-degree nets.
func BenchmarkFig7aSmallNets(b *testing.B) {
	cfg, designs := benchDesigns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunSmall(context.Background(), cfg, designs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NonOpt), "nonopt-nets")
	}
}

// BenchmarkFig7bLargeNets regenerates Figure 7(b): curves and runtime on
// the suite's large-degree nets.
func BenchmarkFig7bLargeNets(b *testing.B) {
	cfg, designs := benchDesigns(b)
	nets := exp.LargeSuiteNets(cfg, designs)
	if len(nets) == 0 {
		b.Skip("no large nets in quick sample")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunLarge(context.Background(), cfg, "fig7b", nets, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Hypervolume["PatLabor"], "patlabor-hv")
	}
}

// BenchmarkFig7cDegree100 regenerates Figure 7(c): 100 (quick: 3) random
// degree-100 nets.
func BenchmarkFig7cDegree100(b *testing.B) {
	cfg := exp.QuickConfig()
	nets := exp.Degree100Nets(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunLarge(context.Background(), cfg, "fig7c", nets, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Hypervolume["PatLabor"], "patlabor-hv")
	}
}

// BenchmarkTheorem1Gadget regenerates the Theorem 1 / Figure 4
// verification: exponential frontier growth on the S-gadget family.
func BenchmarkTheorem1Gadget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunThm1(context.Background(), 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Frontier[len(res.Frontier)-1]), "frontier-m2")
	}
}

// BenchmarkSmoothedFrontier regenerates the Theorem 2 verification:
// frontier sizes of κ-smoothed instances.
func BenchmarkSmoothedFrontier(b *testing.B) {
	cfg := exp.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RunThm2(context.Background(), cfg, 6, []float64{1, 4}, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanSize[len(res.MeanSize)-1], "mean-size-k4")
	}
}

// BenchmarkAblationAll regenerates the ablation study: pruning lemmas,
// LUT-vs-DP, and local-search variants.
func BenchmarkAblationAll(b *testing.B) {
	cfg := exp.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAblation(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteAll measures the batch-routing engine on a fixed mixed
// batch (small exact-frontier nets plus large local-search nets) at
// several worker-pool sizes. The workers=1 sub-benchmark is the serial
// baseline; the speedup of workers=N over workers=1 is recorded in
// EXPERIMENTS.md.
func BenchmarkRouteAll(b *testing.B) {
	rng := rand.New(rand.NewSource(2024))
	nets := make([]Net, 48)
	for i := range nets {
		deg := 4 + rng.Intn(6) // 4..9: exact small-net path
		if i%4 == 0 {
			deg = 14 + rng.Intn(12) // local-search path
		}
		nets[i] = netgen.Clustered(rng, deg, 100000, 4000)
	}
	// Warm the shared lookup table so no sub-benchmark pays the one-time
	// generation cost.
	if _, err := RouteAll(nets[:1], Options{}, 1); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RouteAll(nets, Options{}, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(nets)), "nets/op")
		})
	}
}

// BenchmarkScaling is the scalability harness: one fixed mixed batch
// swept over worker-pool widths × cache modes, the grid BENCH_PR9.json
// froze. cache=on shares one sub-frontier memo
// and the batch dedup across workers (the contended configuration the
// sharded SubCache exists for); cache=off routes every net from scratch
// (the embarrassingly parallel upper bound — any scaling gap between the
// two modes is cache-coordination cost, not algorithm). Frontiers are
// byte-identical across every cell of the grid, so cells differ only in
// wall clock. On a single-core host the workers>1 rows measure pure
// coordination overhead over workers=1 — the speedup-vs-workers table
// needs a multi-core host (`go test -bench Scaling` there; see the
// EXPERIMENTS.md lock-contention entry).
func BenchmarkScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(2026))
	nets := make([]Net, 48)
	for i := range nets {
		deg := 4 + rng.Intn(6) // 4..9: exact small-net path
		if i%4 == 0 {
			deg = 14 + rng.Intn(12) // local-search path
		}
		nets[i] = netgen.Clustered(rng, deg, 100000, 4000)
	}
	// Warm the shared lookup table so no cell pays the one-time build.
	if _, err := RouteAll(nets[:1], Options{}, 1); err != nil {
		b.Fatal(err)
	}
	widths := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	for _, cache := range []struct {
		label   string
		noCache bool
	}{{"on", false}, {"off", true}} {
		for _, w := range widths {
			b.Run(fmt.Sprintf("cache=%s/workers=%d", cache.label, w), func(b *testing.B) {
				opts := Options{NoCache: cache.noCache}
				for i := 0; i < b.N; i++ {
					if _, err := RouteAll(nets, opts, w); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(nets)), "nets/op")
			})
		}
	}
}

// BenchmarkHugeNet measures the hierarchical router (internal/hier) on
// mega-clustered nets of degree 64–4096 — the clock/reset-spine regime the
// flat local search cannot reach interactively. Crossover 32 forces even
// the degree-64 cells through the clustered two-level path so the
// mode=flat rows at degrees 64 and 256 give a hier-vs-flat pair on both
// sides of the default crossover; past 256 the flat search is omitted
// (minutes per op). workers=max fans the per-cluster subproblems over
// GOMAXPROCS workers; results are byte-identical at any worker count (the
// differential test in internal/hier enforces it), so the workers rows
// differ only in wall clock. BENCH_PR7.json froze this suite against the
// flat baseline.
func BenchmarkHugeNet(b *testing.B) {
	for _, deg := range []int{64, 256, 1024, 4096} {
		rng := rand.New(rand.NewSource(int64(3000 + deg)))
		net := netgen.MegaClustered(rng, deg, 1000000, deg/80+2, 30000)
		// Warm the shared lookup table outside the timed region.
		if _, err := hier.RouteContext(context.Background(), net, hier.Options{Crossover: 32}); err != nil {
			b.Fatal(err)
		}
		for _, w := range []struct {
			label string
			n     int
		}{{"1", 1}, {"max", runtime.GOMAXPROCS(0)}} {
			b.Run(fmt.Sprintf("degree=%d/mode=hier/workers=%s", deg, w.label), func(b *testing.B) {
				opts := hier.Options{Crossover: 32, Workers: w.n}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					items, err := hier.RouteContext(context.Background(), net, opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(items) == 0 {
						b.Fatal("empty frontier")
					}
				}
			})
		}
		if deg <= 256 {
			b.Run(fmt.Sprintf("degree=%d/mode=flat", deg), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.RouteContext(context.Background(), net, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- micro-benchmarks of the individual engines ----

func benchNet(n int, seed int64) tree.Net {
	rng := rand.New(rand.NewSource(seed))
	return netgen.Clustered(rng, n, 100000, 4000)
}

// BenchmarkExactFrontier measures the concrete Pareto-DW per degree,
// cycling through 16 clustered nets so that no single net's grid and
// frontier shape dominates the mean. EXPERIMENTS.md's per-degree DP
// table comes from it.
func BenchmarkExactFrontier(b *testing.B) {
	for n := 3; n <= 10; n++ {
		b.Run(fmt.Sprintf("degree=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(500 + n)))
			nets := make([]tree.Net, 16)
			for i := range nets {
				nets[i] = netgen.Clustered(rng, n, 100000, 4000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dw.FrontierContext(context.Background(), nets[i%len(nets)], dw.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactFrontierNoPruning quantifies the speedup of Lemmas 2-4.
func BenchmarkExactFrontierNoPruning(b *testing.B) {
	net := benchNet(7, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dw.FrontierSolsContext(context.Background(), net, dw.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUTQueryDegree5(b *testing.B) {
	table := lut.Default()
	net := benchNet(5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := table.Query(net); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkLUTQuery measures the per-net lookup-table query cost and
// allocation count per covered degree, cycling through a pool of random
// nets so one pattern's frontier shape does not dominate. This is the
// per-net latency floor of the batch engine's small-net path;
// BENCH_PR2.json froze it and EXPERIMENTS.md tracks the trajectory.
func BenchmarkLUTQuery(b *testing.B) {
	table := lut.Default()
	for d := 2; d <= 5; d++ {
		b.Run(fmt.Sprintf("degree=%d", d), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(100 + d)))
			nets := make([]tree.Net, 16)
			for i := range nets {
				nets[i] = netgen.Clustered(rng, d, 100000, 4000)
				if _, ok, err := table.Query(nets[i]); err != nil || !ok {
					b.Fatalf("net %d: ok=%v err=%v", i, ok, err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := table.Query(nets[i%len(nets)]); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}

// BenchmarkLocalSearch measures the policy-guided local search of §V on
// clustered large-degree nets — the path that dominates batch routing time
// on real netlists. It cycles through a small pool of nets per degree so no
// single net's frontier shape dominates; each Route carries its own
// sub-frontier memo (windows recur across iterations within one search),
// which is the cold-batch case — cross-net reuse only makes the engine
// faster still. BENCH_PR4.json froze it.
func BenchmarkLocalSearch(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("degree=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(200 + n)))
			nets := make([]tree.Net, 4)
			for i := range nets {
				nets[i] = netgen.Clustered(rng, n, 100000, 4000)
			}
			// Warm the shared lookup table outside the timed region.
			if _, err := core.RouteContext(context.Background(), nets[0], core.Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RouteContext(context.Background(), nets[i%len(nets)], core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPatLaborLargeNet(b *testing.B) {
	net := benchNet(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RouteContext(context.Background(), net, core.Options{Lambda: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSALTSweepLargeNet(b *testing.B) {
	net := benchNet(30, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		salt.Sweep(net, nil)
	}
}

func BenchmarkYSDSweepLargeNet(b *testing.B) {
	net := benchNet(30, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ysd.SweepContext(context.Background(), net, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSMTLargeNet(b *testing.B) {
	net := benchNet(30, 33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RSMT(net)
	}
}

func BenchmarkRSMALargeNet(b *testing.B) {
	net := benchNet(30, 34)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RSMA(net)
	}
}

// BenchmarkExtensionGRoute regenerates the beyond-the-paper experiment:
// global-routing topology selection from Pareto candidate sets.
func BenchmarkExtensionGRoute(b *testing.B) {
	cfg := exp.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunGRoute(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkElmoreEvaluation measures Elmore delay evaluation of a routing
// tree (the per-candidate cost of Elmore re-ranking).
func BenchmarkElmoreEvaluation(b *testing.B) {
	net := benchNet(30, 35)
	t := RSMT(net)
	p := TypicalElmoreParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ElmoreDelay(t, p) <= 0 {
			b.Fatal("bad delay")
		}
	}
}

// BenchmarkReroute measures ECO mode against from-scratch routing on a
// churning net: per step, fraction×degree pins receive edits (minimum
// one) and the post-edit frontier is recomputed. mode=full routes every
// post-edit net from scratch with core.RouteContext (no shared caches — the
// honest baseline); mode=eco replays the identical deterministic stream
// through a Session handle. RevertPercent 70 models the low-acceptance
// try/rollback loop of a timing ECO — most tried edits are measured and
// undone, walking back down the undo stack to a geometry routed before,
// the case the net-level memo answers without routing. BENCH_PR6.json
// froze both sides.
func BenchmarkReroute(b *testing.B) {
	for _, deg := range []int{8, 16, 32, 64} {
		for _, frac := range []int{1, 5, 10, 25} {
			editsPerStep := deg * frac / 100
			if editsPerStep < 1 {
				editsPerStep = 1
			}
			stream := func(n int) (tree.Net, [][]eco.Edit) {
				rng := rand.New(rand.NewSource(int64(1000*deg + frac)))
				net := netgen.Clustered(rng, deg, 100000, 4000)
				return net, netgen.EditStream(rng, net, netgen.EditStreamOptions{
					Steps:             n,
					EditsPerStep:      editsPerStep,
					RevertPercent:     70,
					StructuralPercent: 10,
					Span:              100000,
				})
			}
			name := fmt.Sprintf("degree=%d/frac=%d", deg, frac)
			b.Run(name+"/mode=full", func(b *testing.B) {
				net, steps := stream(b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next, _, err := eco.Apply(net, steps[i])
					if err != nil {
						b.Fatal(err)
					}
					net = next
					if _, err := core.RouteContext(context.Background(), net, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/mode=eco", func(b *testing.B) {
				net, steps := stream(b.N)
				s, err := eco.NewSession(core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				h, err := s.Track(context.Background(), net)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := h.Reroute(context.Background(), steps[i]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkColdStart measures time from LoadFile to the first answered
// query — the interactive-startup cost a router pays before routing its
// first net. LoadFile mmaps the file and validates only the index, so
// cold start is O(index) instead of O(table). BENCH_PR8.json records it
// against the retired gob format.
func BenchmarkColdStart(b *testing.B) {
	src := lut.New()
	for d := 2; d <= 5; d++ {
		if err := src.Generate(d, 0); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "t.plut")
	if err := src.SaveFlatFile(path); err != nil {
		b.Fatal(err)
	}
	net := benchNet(5, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := lut.New()
		if err := tab.LoadFile(path); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := tab.Query(net); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
		if err := tab.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
