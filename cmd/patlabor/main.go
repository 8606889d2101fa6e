// Command patlabor routes nets from a Bookshelf-style file and prints the
// Pareto set of each: one (wirelength, delay) row per Pareto-optimal tree.
//
// Usage:
//
//	patlabor -nets nets.txt [-method patlabor|hier|salt|ysd|pd|ks|dw|rsmt|rsma]
//	         [-lambda 9] [-table tables.plut] [-workers N] [-timeout 30s]
//	         [-nocache] [-stats] [-v]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	         [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// Every method routes the whole file as one batch on a worker pool
// (-workers, default GOMAXPROCS; output order and content are identical at
// any worker count). -method picks any entrant of the method registry —
// patlabor (default), hier (the hierarchical router for huge nets, which
// routes nets at or below its crossover degree exactly like patlabor's
// core and clusters the rest), the baselines, or an alias like dw/exact.
// -timeout
// bounds the whole batch: when it expires, in-flight nets abort at their
// next iteration check and the command fails. -nocache disables the
// sub-frontier memo and the batch net dedup (output is byte-identical
// either way; the flag exists for A-B timing). -stats prints the engine's
// counters — per-method nets routed, lookup-table hit rate and
// symbolic-evaluation savings, sub-frontier memo and net-dedup hit rates,
// per-degree latency — to stderr. With -v
// each solution also prints its tree edges. -cpuprofile/-memprofile write
// runtime/pprof profiles of the routing run for `go tool pprof`;
// -mutexprofile/-blockprofile add the contention profiles (lock waits,
// channel/scheduler blocking) the scalability work reads — they enable
// the runtime's contention sampling only for profiled runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"patlabor"
	"patlabor/internal/engine"
	"patlabor/internal/profiling"
)

func main() {
	netsPath := flag.String("nets", "", "Bookshelf-style net file (required)")
	method := flag.String("method", "patlabor",
		"routing method: "+strings.Join(patlabor.Methods(), ", ")+" (or an alias like pd, ks, dw)")
	lambda := flag.Int("lambda", 0, "small-net threshold λ (default 9; patlabor method only)")
	table := flag.String("table", "", "pre-generated flat lookup-table file (.plut) from lutgen")
	verbose := flag.Bool("v", false, "print tree edges")
	workers := flag.Int("workers", 0, "worker-pool size for batch routing (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "abort the batch after this duration (0 = no limit)")
	stats := flag.Bool("stats", false, "print batch-engine statistics to stderr")
	nocache := flag.Bool("nocache", false, "disable the sub-frontier memo and batch net dedup (output identical)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Parse()

	if *netsPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := profiling.Start(profiling.Config{
		CPU:   *cpuProfile,
		Mem:   *memProfile,
		Mutex: *mutexProfile,
		Block: *blockProfile,
	})
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	nets, err := patlabor.ReadNets(*netsPath)
	if err != nil {
		fatal(err)
	}
	batch := make([]patlabor.Net, len(nets))
	for i, nn := range nets {
		batch[i] = nn.Net
	}
	eng, err := engine.New(engine.Options{
		Workers:   *workers,
		Method:    *method,
		Lambda:    *lambda,
		TablePath: *table,
		NoCache:   *nocache,
	})
	if err != nil {
		fatal(err)
	}
	// The timeout bounds routing, not setup: the clock starts after the
	// engine (and any eager lookup tables) is built.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	results, err := eng.RouteAll(ctx, batch)
	if err != nil {
		fatal(err)
	}
	for i, nn := range nets {
		printNet(nn.Name, nn.Net, results[i], *verbose)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "batch engine (%d workers, method %s):\n%s",
			eng.Workers(), eng.Method(), eng.Stats())
	}
}

func printNet(name string, net patlabor.Net, cands []patlabor.Candidate, verbose bool) {
	fmt.Printf("net %s degree %d: %d Pareto solutions\n", name, net.Degree(), len(cands))
	for _, c := range cands {
		fmt.Printf("  w=%-10d d=%-10d\n", c.Sol.W, c.Sol.D)
		if verbose {
			for i, p := range c.Val.Parent {
				if p >= 0 {
					fmt.Printf("    %v -- %v\n", c.Val.Nodes[p].P, c.Val.Nodes[i].P)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "patlabor:", err)
	os.Exit(1)
}
