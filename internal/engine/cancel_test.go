package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"patlabor/internal/dw"
	"patlabor/internal/method"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/salt"
	"patlabor/internal/tree"
)

// blockUntilCancelled is a registry method whose every route parks until
// the context is cancelled — it makes "a batch in flight when cancel
// arrives" deterministic instead of a race against real routing speed.
func init() {
	method.Register(method.NewFunc("Block-Until-Cancelled",
		func(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}))
}

// TestRouteAllCancelMidBatch cancels a large batch while every worker is
// parked mid-route and demands: RouteAll returns context.Canceled within
// bounded time, the results are nil, and the goroutine count returns to
// its pre-batch baseline (no leaked workers).
func TestRouteAllCancelMidBatch(t *testing.T) {
	nets := make([]tree.Net, 500)
	rng := rand.New(rand.NewSource(42))
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 4, 1000)
	}
	baseline := runtime.NumGoroutine()

	e, err := New(Options{Workers: 8, Method: "block-until-cancelled"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	defer cancel()

	start := time.Now()
	res, err := e.RouteAll(ctx, nets)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled batch returned %d results, want nil", len(res))
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want bounded abort", elapsed)
	}

	// Workers exit once the job channel closes; give the scheduler a
	// moment before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("goroutines %d > baseline %d after cancel", got, baseline)
	}
}

// TestRouteAllPreCancelled verifies an already-cancelled context fails
// fast without routing anything.
func TestRouteAllPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nets := []tree.Net{netgen.Uniform(rand.New(rand.NewSource(2)), 5, 1000)}
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RouteAll(ctx, nets); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.NetsRouted != 0 {
		t.Fatalf("pre-cancelled batch routed %d nets", s.NetsRouted)
	}
}

// TestDWExpiredDeadlineFailsFast routes a degree-9 net with the exact DP
// under an already-expired deadline: the DP must notice before its subset
// loop and return context.DeadlineExceeded near-instantly instead of
// enumerating 2^9 sink subsets.
func TestDWExpiredDeadlineFailsFast(t *testing.T) {
	net := netgen.Uniform(rand.New(rand.NewSource(9)), 9, 8000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := dw.FrontierContext(ctx, net, dw.DefaultOptions())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("expired deadline took %v to surface", elapsed)
	}
}

// TestForEachContextCancel covers the single-worker and pooled paths of
// pool.Each, RouteAll's batch dispatch, under mid-batch cancellation.
func TestForEachContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var visited atomic.Int64
		err := pool.Each(ctx, 1000, workers, func(_, i int) error {
			if i == 3 {
				cancel()
			}
			visited.Add(1)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if visited.Load() >= 1000 {
			t.Fatalf("workers=%d: cancellation did not stop dispatch", workers)
		}
	}
}

// TestRouteAllMethodSelection routes a batch with Method: "salt" and
// checks the engine's output matches the serial baseline, and that the
// per-method counters are attributed to SALT's display name.
func TestRouteAllMethodSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nets := make([]tree.Net, 25)
	for i := range nets {
		nets[i] = netgen.Clustered(rng, 5+rng.Intn(6), 9000, 800)
	}
	e, err := New(Options{Workers: 4, Method: "salt"})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Method(); got != "SALT" {
		t.Fatalf("Method() = %q, want SALT", got)
	}
	res, err := e.RouteAll(context.Background(), nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, cands := range res {
		want := salt.Sweep(nets[i], nil)
		if fmt.Sprint(solsOf(cands)) != fmt.Sprint(solsOf(want)) {
			t.Fatalf("net %d: engine SALT frontier differs from serial salt.Sweep", i)
		}
	}
	s := e.Stats()
	if len(s.Methods) != 1 || s.Methods[0].Name != "SALT" || s.Methods[0].Nets != 25 {
		t.Fatalf("per-method stats = %+v", s.Methods)
	}

	if _, err := New(Options{Method: "no-such-router"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}
