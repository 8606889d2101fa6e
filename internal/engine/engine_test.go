package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"patlabor/internal/core"
	"patlabor/internal/eco"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/tree"
)

// TestRouteAllDifferential is the determinism contract: pooled batches
// return byte-identical frontiers to routing each net serially with
// core.Frontier, on 220 random small nets of degree 2..7 — at the
// standard width, and oversubscribed (4×GOMAXPROCS workers) with the
// sharded sub-frontier cache cold and warm.
func TestRouteAllDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	const count = 220
	nets := make([]tree.Net, count)
	for i := range nets {
		deg := 2 + rng.Intn(6) // 2..7
		nets[i] = netgen.Uniform(rng, deg, 4000)
	}

	serial := make([][]pareto.Sol, count)
	for i, net := range nets {
		sols, err := core.FrontierContext(context.Background(), net, core.Options{})
		if err != nil {
			t.Fatalf("serial net %d: %v", i, err)
		}
		serial[i] = sols
	}

	// The cell grid: the standard pooled width, then an oversubscribed
	// pool (4×GOMAXPROCS — workers far outnumber cores, so the scheduler
	// interleaves them aggressively and every shard of the sub-frontier
	// cache sees mixed traffic) with the cache cold and warm. A warm cell
	// reuses its engine for a second pass: every window hits the sharded
	// memo, the strictest cache-transport check.
	over := 4 * runtime.GOMAXPROCS(0)
	cells := []struct {
		name   string
		opts   Options
		passes int
	}{
		{"workers=8", Options{Workers: 8}, 1},
		{fmt.Sprintf("workers=%d/cache=cold", over), Options{Workers: over}, 1},
		{fmt.Sprintf("workers=%d/cache=warm", over), Options{Workers: over}, 2},
	}
	for _, cell := range cells {
		eng, err := New(cell.opts)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		var results []Result
		for p := 0; p < cell.passes; p++ {
			results, err = eng.RouteAll(context.Background(), nets)
			if err != nil {
				t.Fatalf("%s pass %d: %v", cell.name, p, err)
			}
		}
		if len(results) != count {
			t.Fatalf("%s: got %d results for %d nets", cell.name, len(results), count)
		}
		for i, cands := range results {
			got := make([]pareto.Sol, len(cands))
			for k, c := range cands {
				got[k] = c.Sol
				if err := c.Val.Validate(nets[i]); err != nil {
					t.Fatalf("%s: net %d candidate %d: %v", cell.name, i, k, err)
				}
			}
			want := serial[i]
			if !bytes.Equal([]byte(fmt.Sprint(got)), []byte(fmt.Sprint(want))) {
				t.Fatalf("%s: net %d (degree %d): concurrent frontier %v != serial %v",
					cell.name, i, nets[i].Degree(), got, want)
			}
		}
	}
}

// TestRouteAllWorkerCounts re-routes one batch at several worker counts
// and demands identical output each time.
func TestRouteAllWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nets := make([]tree.Net, 40)
	for i := range nets {
		nets[i] = netgen.Clustered(rng, 4+rng.Intn(5), 10000, 900)
	}
	var ref []Result
	for _, w := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		res, err := RouteAll(context.Background(), nets, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if fmt.Sprint(solsOf(res[i])) != fmt.Sprint(solsOf(ref[i])) {
				t.Fatalf("workers=%d: net %d differs", w, i)
			}
		}
	}
}

func solsOf(r Result) []pareto.Sol {
	out := make([]pareto.Sol, len(r))
	for i, c := range r {
		out[i] = c.Sol
	}
	return out
}

// TestRouteAllLargeNets exercises the local-search path (degree > λ)
// concurrently; -race validates there is no hidden shared state.
func TestRouteAllLargeNets(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nets := make([]tree.Net, 6)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 12+rng.Intn(8), 20000)
	}
	e, err := New(Options{Workers: 4, Lambda: 7, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteAll(context.Background(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, cands := range res {
		if len(cands) == 0 {
			t.Fatalf("net %d: empty frontier", i)
		}
		serial, err := core.RouteContext(context.Background(), nets[i], core.Options{Lambda: 7, Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(solsOf(cands)) != fmt.Sprint(solsOf(serial)) {
			t.Fatalf("net %d: concurrent local search differs from serial", i)
		}
	}
}

// TestRouteAllError checks the lowest failed index wins deterministically.
func TestRouteAllError(t *testing.T) {
	good := netgen.Uniform(rand.New(rand.NewSource(1)), 4, 100)
	nets := []tree.Net{good, {}, good, {}}
	_, err := RouteAll(context.Background(), nets, Options{Workers: 4})
	if err == nil {
		t.Fatal("empty net accepted")
	}
	if !strings.Contains(err.Error(), "net 1") {
		t.Fatalf("error %q does not name the lowest failed net", err)
	}
}

// TestNewRejectsLambda checks both table-routing methods validate λ up
// front instead of failing every net of every batch.
func TestNewRejectsLambda(t *testing.T) {
	for _, m := range []string{"patlabor", "hier"} {
		for _, lambda := range []int{-1, 1, 17} {
			if _, err := New(Options{Method: m, Lambda: lambda}); err == nil {
				t.Fatalf("method %s: lambda %d accepted", m, lambda)
			}
		}
	}
}

// TestRouteAllOverflowPanicIsError routes nets whose coordinates sit
// near ±2^62, where the router's int64 arithmetic panics, on one and on
// two workers: the batch must fail with the lowest net's error, prefixed
// like any other net failure and counted in Errors, instead of the panic
// killing the process.
func TestRouteAllOverflowPanicIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nets := make([]tree.Net, 2)
	for i := range nets {
		pins := make([]geom.Point, 13)
		for j := range pins {
			pins[j] = geom.Pt(rng.Int63n(1<<20)-(1<<62)*int64(1-2*(j%2)), rng.Int63n(1<<20)+(1<<62)*int64(1-2*(j/2%2)))
		}
		nets[i] = tree.Net{Pins: pins}
	}
	for _, workers := range []int{1, 2} {
		e, err := New(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.RouteAll(context.Background(), nets)
		if err == nil {
			t.Fatalf("workers=%d: overflowing nets routed without error", workers)
		}
		if !strings.HasPrefix(err.Error(), "engine: net 0: ") {
			t.Fatalf("workers=%d: error %q does not name the lowest failed net", workers, err)
		}
		if s := e.Stats(); s.Errors < 1 {
			t.Fatalf("workers=%d: panicking net not counted: Errors = %d", workers, s.Errors)
		}
	}
}

// TestBatchAccounting checks the pooled loop's failure accounting on
// every entry point, at one and at two workers: a batch with one failing
// net — an empty net for RouteAll and Track, an invalid edit for
// RerouteBatch — fails with that net's index behind the "engine: net i:"
// prefix, counts the failure in Errors and still counts as one batch.
func TestBatchAccounting(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	const bad = 2
	nets := make([]tree.Net, 5)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 3+i, 1000)
	}
	withEmpty := append([]tree.Net(nil), nets...)
	withEmpty[bad] = tree.Net{}
	cases := []struct {
		name string
		// prepare readies e and returns the failing batch call.
		prepare func(t *testing.T, e *Engine) func() error
	}{
		{"RouteAll", func(t *testing.T, e *Engine) func() error {
			return func() error { _, err := e.RouteAll(ctx, withEmpty); return err }
		}},
		{"Track", func(t *testing.T, e *Engine) func() error {
			return func() error { _, err := e.Track(ctx, withEmpty); return err }
		}},
		{"RerouteBatch", func(t *testing.T, e *Engine) func() error {
			handles, err := e.Track(ctx, nets)
			if err != nil {
				t.Fatal(err)
			}
			edits := make([][]eco.Edit, len(nets))
			for i := range edits {
				edits[i] = []eco.Edit{eco.MovePin(1, geom.Pt(int64(7*i), 3))}
			}
			edits[bad] = []eco.Edit{eco.MovePin(99, geom.Pt(0, 0))}
			return func() error { _, err := e.RerouteBatch(ctx, handles, edits); return err }
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			e, err := New(Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			call := c.prepare(t, e)
			before := e.Stats()
			err = call()
			if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("engine: net %d: ", bad)) {
				t.Fatalf("%s workers=%d: error %v, want the prefix of net %d", c.name, workers, err, bad)
			}
			after := e.Stats()
			if after.Errors < 1 || after.Batches != before.Batches+1 {
				t.Fatalf("%s workers=%d: Errors %d, Batches %d → %d; want Errors ≥ 1 and one more batch",
					c.name, workers, after.Errors, before.Batches, after.Batches)
			}
		}
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nets := make([]tree.Net, 30)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 5, 3000)
	}
	e, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(context.Background(), nets); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.NetsRouted != 30 || s.Batches != 1 || s.Errors != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(s.Methods) != 1 || s.Methods[0].Name != "PatLabor" ||
		s.Methods[0].Nets != 30 || s.Methods[0].Errors != 0 {
		t.Fatalf("per-method stats = %+v", s.Methods)
	}
	if s.CacheHits+s.CacheMisses != 30 {
		t.Fatalf("cache traffic %d+%d, want 30 consults", s.CacheHits, s.CacheMisses)
	}
	if len(s.Degrees) != 1 || s.Degrees[0].Degree != 5 || s.Degrees[0].Nets != 30 {
		t.Fatalf("degree histogram = %+v", s.Degrees)
	}
	var bucketed int64
	for _, b := range s.Degrees[0].Buckets {
		bucketed += b
	}
	if bucketed != 30 {
		t.Fatalf("histogram holds %d nets, want 30", bucketed)
	}
	if s.Busy <= 0 || s.Elapsed <= 0 {
		t.Fatalf("timers not recorded: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty Stats string")
	}
	e.Reset()
	s = e.Stats()
	if s.NetsRouted != 0 || s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatalf("Reset left counters: %+v", s)
	}
}

// TestStatsTableLoad checks the table cold-start surface: an engine
// built from a flat TablePath reports the load time and mapped bytes in
// Stats and renders them in the summary, and Reset does not zero them
// (they describe the table, not the batch).
func TestStatsTableLoad(t *testing.T) {
	src := lut.New()
	if err := src.Generate(4, 0); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/t.plut"
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Workers: 1, TablePath: path})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	nets := []tree.Net{netgen.Uniform(rng, 4, 500)}
	if _, err := e.RouteAll(context.Background(), nets); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.TableColdStart <= 0 {
		t.Fatalf("TableColdStart = %v", s.TableColdStart)
	}
	if runtime.GOOS == "linux" && s.TableMappedBytes <= 0 {
		t.Fatalf("TableMappedBytes = %d on linux", s.TableMappedBytes)
	}
	if !strings.Contains(s.String(), "LUT load") {
		t.Fatalf("stats rendering lacks LUT load line:\n%s", s.String())
	}
	e.Reset()
	if s = e.Stats(); s.TableColdStart <= 0 {
		t.Fatal("Reset zeroed the table cold-start info")
	}
}

// TestStatsConcurrent hammers Stats() while a batch is in flight (the
// snapshot must be race-free under -race).
func TestStatsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nets := make([]tree.Net, 60)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 4+rng.Intn(3), 2000)
	}
	e, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = e.Stats()
			}
		}
	}()
	for r := 0; r < 3; r++ {
		if _, err := e.RouteAll(context.Background(), nets); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	if got := e.Stats().NetsRouted; got != 180 {
		t.Fatalf("routed %d, want 180", got)
	}
}

// TestForEachDeterministicError pins the pool.Each contract RouteAll's
// batch dispatch relies on: the lowest failed index's error wins.
func TestForEachDeterministicError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := pool.Each(context.Background(), 100, 8, func(_, i int) error {
			if i%30 == 17 { // fails at 17, 47, 77
				return fmt.Errorf("fail %d", i)
			}
			time.Sleep(time.Microsecond)
			return nil
		})
		if err == nil || err.Error() != "fail 17" {
			t.Fatalf("trial %d: err = %v, want fail 17", trial, err)
		}
	}
}

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		hit := make([]int64, 257)
		err := pool.Each(context.Background(), len(hit), workers, func(_, i int) error {
			hit[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 1},
		{1024 * time.Microsecond, 10},
		{time.Hour, LatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
