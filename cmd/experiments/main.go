// Command experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic ICCAD-15-like suite.
//
// Usage:
//
//	experiments [-exp all|fig6|table2|table3|table4|fig7a|fig7b|fig7c|thm1|thm2|ablation|eco|hugenet|scale]
//	            [-quick] [-designs N] [-nets N] [-seed S] [-timeout 10m]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// The small-net experiments (fig6, table3, table4, fig7a) share one pass
// over the suite and are computed together when any of them is requested.
// -timeout bounds the whole run: when it expires, the in-flight experiment
// aborts at its next per-net check and the command fails.
// -cpuprofile/-memprofile write runtime/pprof profiles of the full run;
// -mutexprofile/-blockprofile add the contention profiles the scale
// experiment's analysis reads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"patlabor/internal/exp"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/profiling"
)

func main() {
	which := flag.String("exp", "all", "experiment to run (all, fig6, table2, table3, table4, fig7a, fig7b, fig7c, thm1, thm2, thm5, ablation, groute, eco, hugenet, scale)")
	quick := flag.Bool("quick", false, "use reduced sample sizes")
	designs := flag.Int("designs", 0, "override number of designs")
	nets := flag.Int("nets", 0, "override nets per design")
	seed := flag.Int64("seed", 0, "override suite seed")
	table := flag.String("table", "", "flat lookup-table file (.plut) from cmd/lutgen, merged into the default table (speeds up PatLabor's small-net path)")
	workers := flag.Int("workers", 0, "worker-pool size for per-net experiment loops (0 = GOMAXPROCS; results are identical at any worker count)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Parse()

	stopProf, err := profiling.Start(profiling.Config{
		CPU:   *cpuProfile,
		Mem:   *memProfile,
		Mutex: *mutexProfile,
		Block: *blockProfile,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *table != "" {
		if err := lut.Default().LoadFile(*table); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: loading table:", err)
			os.Exit(1)
		}
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *designs > 0 {
		cfg.Suite.Designs = *designs
	}
	if *nets > 0 {
		cfg.Suite.NetsPerDesign = *nets
	}
	if *seed != 0 {
		cfg.Suite.Seed = *seed
	}
	cfg.Workers = *workers

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, cfg, strings.ToLower(*which)); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg exp.Config, which string) error {
	want := func(names ...string) bool {
		if which == "all" {
			return true
		}
		for _, n := range names {
			if which == n {
				return true
			}
		}
		return false
	}

	if want("thm1", "fig4") {
		maxM := 3
		if cfg.Quick {
			maxM = 2
		}
		res, err := exp.RunThm1(ctx, maxM)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("thm2") {
		res, err := exp.RunThm2(ctx, cfg, 7, nil, 200)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("thm5") {
		res, err := exp.RunThm5(ctx, cfg, 12, nil, 40)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("table2") {
		eager, sampleDeg, sampleCnt := 6, 7, 40
		if cfg.Quick {
			eager, sampleDeg, sampleCnt = 5, 6, 10
		}
		res, err := exp.RunTable2(ctx, eager, sampleDeg, sampleCnt, 0)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}

	needSmall := want("fig6", "table3", "table4", "fig7a")
	needLarge := want("fig7b")
	var suite []netgen.Design
	if needSmall || needLarge {
		fmt.Printf("generating suite: %d designs × %d nets (seed %d)...\n",
			cfg.Suite.Designs, cfg.Suite.NetsPerDesign, cfg.Suite.Seed)
		suite = netgen.Suite(cfg.Suite)
	}
	if needSmall {
		res, err := exp.RunSmall(ctx, cfg, suite)
		if err != nil {
			return err
		}
		if want("fig6") {
			fmt.Println(res.RenderFig6())
		}
		if want("table3") {
			fmt.Println(res.RenderTable3())
		}
		if want("table4") {
			fmt.Println(res.RenderTable4())
		}
		if want("fig7a") {
			fmt.Println(res.RenderFig7a())
		}
	}
	if needLarge {
		nets := exp.LargeSuiteNets(cfg, suite)
		res, err := exp.RunLarge(ctx, cfg, "Figure 7(b) — large-degree suite nets", nets, true)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("fig7c") {
		nets := exp.Degree100Nets(cfg)
		res, err := exp.RunLarge(ctx, cfg, "Figure 7(c) — random degree-100 nets", nets, true)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("ablation") {
		res, err := exp.RunAblation(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("groute") {
		res, err := exp.RunGRoute(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("eco") {
		res, err := exp.RunEco(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("hugenet") {
		res, err := exp.RunHugeNet(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	if want("scale") {
		res, err := exp.RunScale(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}
