package lut

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"patlabor/internal/hanan"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// queryReference is the pre-optimization Query: decode the net's entry
// through the blob decoder, instantiate every stored topology as a
// concrete tree, compact it, and Pareto-filter the materialized items.
// The symbolic fast path must match it byte for byte.
func queryReference(t *Table, net tree.Net) ([]pareto.Item[*tree.Tree], bool, error) {
	n := net.Degree()
	if n < 2 {
		return nil, false, nil
	}
	r := hanan.RanksOf(net)
	canon, tf := hanan.Canonical(r.Pattern)
	e, ok, err := findEntry(t, canon.Key())
	if err != nil || !ok {
		return nil, false, err
	}
	items := make([]pareto.Item[*tree.Tree], 0, len(e.topos))
	for _, topo := range e.topos {
		tr, err := topo.Instantiate(r, tf)
		if err != nil {
			return nil, false, err
		}
		tr.Compact()
		items = append(items, pareto.Item[*tree.Tree]{Sol: tr.Sol(), Val: tr})
	}
	return pareto.FilterItems(items), true, nil
}

// findEntry decodes key's entry from the first blob holding it, in the
// table's lookup order.
func findEntry(t *Table, key string) (entry, bool, error) {
	for _, b := range t.snapshot().blobs {
		if i, ok := b.find([]byte(key)); ok {
			_, e, err := b.decodeEntry(i)
			return e, err == nil, err
		}
	}
	return entry{}, false, nil
}

func diffTable(t *testing.T, maxDegree int) *Table {
	t.Helper()
	tab := New()
	for d := 2; d <= maxDegree; d++ {
		if err := tab.Generate(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestQueryMatchesReference asserts the symbolic fast path returns exactly
// the frontier and trees of materialize-then-filter: same objective
// vectors, same tree structure, on random nets of every covered degree —
// including tie-heavy nets whose repeated coordinates collapse gap lengths
// to zero.
func TestQueryMatchesReference(t *testing.T) {
	maxDegree := 6
	if testing.Short() {
		maxDegree = 5
	}
	tab := diffTable(t, maxDegree)
	rng := rand.New(rand.NewSource(404))
	const trialsPerDegree = 220
	for d := 2; d <= maxDegree; d++ {
		for trial := 0; trial < trialsPerDegree; trial++ {
			span := int64(100000)
			if trial%3 == 1 {
				span = 40 // frequent shared coordinates
			}
			if trial%3 == 2 {
				span = int64(d) // heavy ties, many zero gaps
			}
			net := randNet(rng, d, span)
			got, okG, errG := tab.Query(net)
			want, okW, errW := queryReference(tab, net)
			if errG != nil || errW != nil || okG != okW {
				t.Fatalf("degree %d trial %d net %v: ok=%v/%v err=%v/%v",
					d, trial, net.Pins, okG, okW, errG, errW)
			}
			if len(got) != len(want) {
				t.Fatalf("degree %d trial %d net %v: frontier %v, want %v",
					d, trial, net.Pins, sols(got), sols(want))
			}
			for i := range want {
				if got[i].Sol != want[i].Sol {
					t.Fatalf("degree %d trial %d net %v: frontier %v, want %v",
						d, trial, net.Pins, sols(got), sols(want))
				}
				if !reflect.DeepEqual(got[i].Val, want[i].Val) {
					t.Fatalf("degree %d trial %d net %v point %d: tree %+v, want %+v",
						d, trial, net.Pins, i, got[i].Val, want[i].Val)
				}
			}
		}
	}
}

// TestQueryConcurrentScratch hammers Query from many goroutines so the
// race detector can see the pooled scratch buffers are not shared.
func TestQueryConcurrentScratch(t *testing.T) {
	tab := diffTable(t, 4)
	rng := rand.New(rand.NewSource(7))
	nets := make([]tree.Net, 64)
	want := make([][]pareto.Item[*tree.Tree], len(nets))
	for i := range nets {
		nets[i] = randNet(rng, 2+i%3, 500)
		var err error
		var ok bool
		want[i], ok, err = tab.Query(nets[i])
		if err != nil || !ok {
			t.Fatalf("net %d: ok=%v err=%v", i, ok, err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				i := (seed + rep) % len(nets)
				got, ok, err := tab.Query(nets[i])
				if err != nil || !ok {
					t.Errorf("net %d: ok=%v err=%v", i, ok, err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("net %d: frontier size %d, want %d", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j].Sol != want[i][j].Sol {
						t.Errorf("net %d point %d: %v, want %v", i, j, got[j].Sol, want[i][j].Sol)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSaveFileAtomic checks SaveFlatFile leaves no temp litter, survives
// overwriting an existing file, and never exposes a truncated table.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tables.plut")
	if err := os.WriteFile(path, []byte("garbage from an older run"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := diffTable(t, 3)
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatalf("reloading saved file: %v", err)
	}
	if !loaded.Covers(3) {
		t.Fatal("reloaded table does not cover degree 3")
	}
	glob, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(glob) != 0 {
		t.Fatalf("temp files left behind: %v", glob)
	}
	// A failed save (unwritable directory) must leave the old file intact.
	roDir := filepath.Join(dir, "ro")
	if err := os.Mkdir(roDir, 0o555); err != nil {
		t.Fatal(err)
	}
	roPath := filepath.Join(roDir, "t.plut")
	if err := src.SaveFlatFile(roPath); err == nil {
		if os.Getuid() != 0 { // root ignores directory permissions
			t.Fatal("SaveFlatFile into a read-only directory succeeded")
		}
	}
}

// TestQueryCounters checks the hit/miss/error accounting: instantiation
// failures count as errors, not hits, and the eval counters expose the
// evaluated-vs-materialized savings.
func TestQueryCounters(t *testing.T) {
	tab := diffTable(t, 4)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 10; i++ {
		if _, ok, err := tab.Query(randNet(rng, 4, 200)); err != nil || !ok {
			t.Fatalf("query %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := tab.Query(randNet(rng, 9, 200)); err != nil || ok {
		t.Fatalf("uncovered degree: ok=%v err=%v", ok, err)
	}
	hits, misses := tab.Counters()
	if hits != 10 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 10/1", hits, misses)
	}
	if e := tab.QueryErrors(); e != 0 {
		t.Fatalf("query errors = %d, want 0", e)
	}
	evaluated, materialized := tab.EvalCounters()
	if evaluated <= 0 || materialized <= 0 || materialized > evaluated {
		t.Fatalf("eval counters: evaluated=%d materialized=%d", evaluated, materialized)
	}

	// Corrupt one entry of a generated blob so instantiation fails: a
	// rank coordinate outside the pattern's grid in every topology's root
	// node makes Instantiate error out.
	net := randNet(rng, 4, 200)
	r := hanan.RanksOf(net)
	canon, _ := hanan.Canonical(r.Pattern)
	for _, b := range tab.snapshot().blobs {
		i, ok := b.find([]byte(canon.Key()))
		if !ok {
			continue
		}
		fe, err := b.entryAt(i)
		if err != nil {
			t.Fatal(err)
		}
		start := 0
		for _, end := range fe.topoEnds {
			fe.topoBlob[start] = 120 // node 0's I
			start = int(end)
		}
	}
	if _, ok, err := tab.Query(net); err == nil || ok {
		t.Fatalf("corrupted entry: ok=%v err=%v, want error", ok, err)
	}
	if e := tab.QueryErrors(); e != 1 {
		t.Fatalf("query errors = %d, want 1", e)
	}
	if h, m := tab.Counters(); h != 10 || m != 1 {
		t.Fatalf("hits=%d misses=%d after error, want 10/1 (error must not count as hit)", h, m)
	}
}
