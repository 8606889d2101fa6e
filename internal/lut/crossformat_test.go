package lut_test

// Cross-backend differential: routing a 220-net batch with the generated
// table, its saved bytes attached with LoadFlat, and the same bytes
// mmapped from a file must be byte-identical — same frontiers, same
// trees, same table counters — at workers 1 and 8, with the sub-frontier
// cache on and off. This is the contract that makes where a blob lives
// a storage detail rather than a behavioral change.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"patlabor/internal/engine"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// renderResults folds a batch result into one deterministic string:
// every solution vector plus the full tree (parents and node points).
func renderResults(results []engine.Result) string {
	var b bytes.Buffer
	for i, cands := range results {
		fmt.Fprintf(&b, "net %d: %d\n", i, len(cands))
		for _, c := range cands {
			fmt.Fprintf(&b, "  %v %v", c.Sol, c.Val.Parent)
			for _, nd := range c.Val.Nodes {
				fmt.Fprintf(&b, " %v", nd.P)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestCrossFormatDifferential(t *testing.T) {
	const maxGen = 5 // covered degrees 2..5; nets go to 6 to exercise misses
	src := lut.New()
	for d := 2; d <= maxGen; d++ {
		if err := src.Generate(d, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Backend 1: the generated table itself.
	// Backend 2: its saved bytes attached as an in-memory blob.
	var flatBuf bytes.Buffer
	if err := src.SaveFlat(&flatBuf); err != nil {
		t.Fatal(err)
	}
	memTab := lut.New()
	if err := memTab.LoadFlat(flatBuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Backend 3: the same flat bytes served from disk (mmapped on linux).
	path := filepath.Join(t.TempDir(), "cross.plut")
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	mapTab := lut.New()
	if err := mapTab.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	defer mapTab.Close()

	backends := []struct {
		name string
		tab  *lut.Table
	}{
		{"generated", src},
		{"flat-mem", memTab},
		{"flat-mmap", mapTab},
	}

	rng := rand.New(rand.NewSource(220))
	nets := make([]tree.Net, 220)
	for i := range nets {
		deg := 2 + rng.Intn(5) // 2..6: every covered degree plus misses
		nets[i] = netgen.Uniform(rng, deg, 2000)
	}

	for _, workers := range []int{1, 8} {
		for _, nocache := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/nocache=%v", workers, nocache)
			var want string
			for _, be := range backends {
				e, err := engine.New(engine.Options{
					Workers: workers,
					Table:   be.tab,
					NoCache: nocache,
				})
				if err != nil {
					t.Fatal(err)
				}
				results, err := e.RouteAll(context.Background(), nets)
				if err != nil {
					t.Fatalf("%s %s: %v", name, be.name, err)
				}
				got := renderResults(results)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s: backend %s differs from the generated table", name, be.name)
				}
			}
		}
	}

	// Every backend answered the same query stream, so the table counters
	// must agree exactly: same hits, misses, and symbolic-eval savings.
	refHits, refMisses := backends[0].tab.Counters()
	refEval, refMat := backends[0].tab.EvalCounters()
	if refHits == 0 || refMisses == 0 {
		t.Fatalf("degenerate counter mix: hits=%d misses=%d (want both paths exercised)",
			refHits, refMisses)
	}
	for _, be := range backends[1:] {
		h, m := be.tab.Counters()
		ev, mat := be.tab.EvalCounters()
		if h != refHits || m != refMisses || ev != refEval || mat != refMat {
			t.Fatalf("%s counters (%d,%d,%d,%d) != generated (%d,%d,%d,%d)",
				be.name, h, m, ev, mat, refHits, refMisses, refEval, refMat)
		}
		if qe := be.tab.QueryErrors(); qe != 0 {
			t.Fatalf("%s: %d query errors", be.name, qe)
		}
	}
}
