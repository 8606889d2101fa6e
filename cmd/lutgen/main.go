// Command lutgen generates PatLabor lookup tables (§V-A) and serialises
// them for reuse. Pre-generated tables can be handed to the router via
// patlabor.Options.TablePath or cmd/patlabor's -table flag.
//
// Usage:
//
//	lutgen -degrees 4-7 -o tables.plut [-workers N] [-sample K] [-check]
//	lutgen -degrees 7 -shard 3/8 -o shard3.plut      # one shard of degree 7
//	lutgen -merge -o tables.plut shard*.plut         # merge shard files
//
// Tables are written in the flat zero-copy format ("PLUT" magic): routers
// memory-map it and start query-warm in milliseconds, sharing one
// page-cache copy across processes.
//
// Generating degree 7 takes minutes on one core (the paper reports 4.76 h
// on 16 cores for the full λ=9 set) — split it with -shard i/N across
// invocations or machines: the canonical pattern space partitions
// deterministically (pattern index mod N), each shard file carries its
// shard bookkeeping, and -merge folds any subset of shard files together,
// idempotently, marking a degree covered only once every shard is present
// (-merge errors out listing the missing shards otherwise; -partial
// downgrades that to a warning so merges can resume later). -resume skips
// generation when the output file already loads, making shard sweeps
// restartable with a shell loop.
//
// Tables are written atomically (temp file + rename). -check reloads the
// written file and verifies its coverage before reporting success.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"patlabor/internal/lut"
)

func main() {
	degrees := flag.String("degrees", "4-6", "degree or range to generate, e.g. 5 or 4-7")
	out := flag.String("o", "tables.plut", "output file")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	sample := flag.Int("sample", 0, "generate only the first K patterns per degree (timing probe; table not marked complete)")
	check := flag.Bool("check", false, "reload the written file and verify its degree coverage")
	shard := flag.String("shard", "", "generate one shard i/N of each degree's pattern space, e.g. 3/8")
	merge := flag.Bool("merge", false, "merge the table files given as arguments into -o instead of generating")
	partial := flag.Bool("partial", false, "with -merge: allow incompletely sharded degrees (warn instead of erroring)")
	resume := flag.Bool("resume", false, "skip generation when -o already exists and loads cleanly")
	flag.Parse()

	if *merge {
		runMerge(flag.Args(), *out, *partial)
	} else {
		runGenerate(*degrees, *out, *shard, *workers, *sample, *resume)
	}
	if *check {
		runCheck(*out, *degrees, *sample > 0, *merge)
	}
}

// runGenerate is the classic path plus sharding: build the requested
// degrees (or one shard of each) and write them out.
func runGenerate(degrees, out, shard string, workers, sample int, resume bool) {
	lo, hi, err := parseRange(degrees)
	if err != nil {
		fatal(err)
	}
	shardIdx, shardCount, err := parseShard(shard)
	if err != nil {
		fatal(err)
	}
	if resume {
		if probe := lut.New(); probe.LoadFile(out) == nil {
			fmt.Printf("resume: %s already loads, skipping generation\n", out)
			return
		}
	}
	t := lut.New()
	for d := lo; d <= hi; d++ {
		switch {
		case shardCount > 1:
			fmt.Printf("generating degree %d shard %d/%d...\n", d, shardIdx, shardCount)
			err = t.GenerateShard(d, workers, shardIdx, shardCount)
		case sample > 0:
			fmt.Printf("generating degree %d (sample %d)...\n", d, sample)
			err = t.GenerateSample(d, workers, sample)
		default:
			fmt.Printf("generating degree %d...\n", d)
			err = t.Generate(d, workers)
		}
		if err != nil {
			fatal(err)
		}
	}
	printStats(t)
	writeTable(t, out)
}

// runMerge folds shard (or whole) table files into one output table.
func runMerge(paths []string, out string, partial bool) {
	if len(paths) == 0 {
		fatal(fmt.Errorf("-merge needs table files as arguments"))
	}
	t := lut.New()
	for _, p := range paths {
		if err := t.LoadFile(p); err != nil {
			fatal(fmt.Errorf("merging %s: %w", p, err))
		}
		fmt.Printf("merged %s\n", p)
	}
	for _, st := range t.Stats() {
		missing, shardCount, ok := t.MissingShards(st.Degree)
		if ok && len(missing) > 0 {
			msg := fmt.Errorf("degree %d incomplete: missing shards %v of %d", st.Degree, missing, shardCount)
			if !partial {
				fatal(fmt.Errorf("%v (re-run those shards, or pass -partial to write anyway)", msg))
			}
			fmt.Printf("warning: %v\n", msg)
		}
	}
	printStats(t)
	writeTable(t, out)
}

func runCheck(out, degrees string, sampled, skipRange bool) {
	re := lut.New()
	if err := re.LoadFile(out); err != nil {
		fatal(fmt.Errorf("check: reloading %s: %w", out, err))
	}
	defer re.Close()
	if !sampled && !skipRange {
		lo, hi, err := parseRange(degrees)
		if err != nil {
			fatal(err)
		}
		for d := lo; d <= hi; d++ {
			if !re.Covers(d) {
				if _, _, sharded := re.MissingShards(d); sharded {
					continue // shard files are legitimately partial
				}
				fatal(fmt.Errorf("check: reloaded table does not cover degree %d", d))
			}
		}
	}
	fmt.Println("check: reload ok")
}

func printStats(t *lut.Table) {
	for _, st := range t.Stats() {
		line := fmt.Sprintf("degree %d: %d indices, %.2f avg topologies, %v",
			st.Degree, st.NumIndex, st.AvgTopo(), st.GenTime)
		if missing, shardCount, ok := t.MissingShards(st.Degree); ok && len(missing) > 0 {
			line += fmt.Sprintf(" [shards %d/%d, missing %v]", shardCount-len(missing), shardCount, missing)
		}
		fmt.Println(line)
	}
}

func writeTable(t *lut.Table, out string) {
	if err := t.SaveFlatFile(out); err != nil {
		fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes)\n", out, info.Size())
}

func parseRange(s string) (int, int, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a < 2 || b < a {
			return 0, 0, fmt.Errorf("bad degree range %q", s)
		}
		return a, b, nil
	}
	d, err := strconv.Atoi(s)
	if err != nil || d < 2 {
		return 0, 0, fmt.Errorf("bad degree %q", s)
	}
	return d, d, nil
}

// parseShard parses "i/N"; empty means unsharded (0, 1).
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/N)", s)
	}
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil || n < 1 || n > lut.MaxShards || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/N, 0 <= i < N <= %d)", s, lut.MaxShards)
	}
	return i, n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lutgen:", err)
	os.Exit(1)
}
