// Package pool provides the repo's deterministic parallel-for: a bounded
// worker pool dispatching indices in order, with per-index error capture
// and context cancellation. It is the concurrency primitive shared by the
// batch engine (across nets) and the hierarchical router (across clusters
// of one net); both owe it the standing determinism contract — callers
// write results only to their own index's slot and aggregate serially, so
// output is byte-identical at any worker count.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Chunked dispatch parameters: aim for chunksPerWorker chunks per
// worker (several, so a skewed index doesn't strand the tail on one
// goroutine), but never more than maxChunk indices per channel send
// (bounding how long a failure drain can lag on huge n).
const (
	chunksPerWorker = 8
	maxChunk        = 256
)

// Each runs fn(worker, i) for every i in [0,n) on a pool of `workers`
// goroutines (<=0 means GOMAXPROCS; the pool never exceeds n). worker is
// the goroutine's index in [0,workers): callers use it to address
// per-worker scratch without locking. Indices are dispatched in order; on
// failure the pool drains in-flight work, stops dispatching, and returns
// the error of the lowest failed index — so the reported error is
// deterministic even though scheduling is not. A panic in fn is
// recovered and becomes its index's error, on either path, so one bad
// input fails its batch instead of killing the process. When ctx is
// cancelled, dispatch stops, handed-out indices abort at their next
// internal ctx check, and ctx.Err() is returned (taking precedence over
// per-index errors).
func Each(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, 0, i); err != nil {
				// Match the pooled path: a cancellation-caused failure
				// surfaces as ctx.Err(), not the per-index wrapper.
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				return err
			}
		}
		return nil
	}
	// Indices are handed out as contiguous chunks, one channel operation
	// per chunk, so per-index dispatch overhead amortizes: with tiny
	// per-index work the channel rendezvous dominates end-to-end time
	// (block profiles put chanrecv+selectgo above 90% of block time under
	// index-at-a-time dispatch). The chunk size splits the range into
	// several chunks per worker — small enough to keep load balanced when
	// per-index cost is skewed, large enough that channel traffic is
	// negligible either way.
	chunk := n / (workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	} else if chunk > maxChunk {
		chunk = maxChunk
	}
	jobs := make(chan int)
	errs := make([]error, n)
	var failed sync.Once
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// A received chunk always runs to completion: the lowest-failed-
			// index guarantee needs every index below a failure executed,
			// and a sibling's failure may land mid-chunk. Cancellation is
			// exempt — fn aborts at its own ctx checks and ctx.Err() takes
			// precedence over every per-index error anyway.
			for lo := range jobs {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := call(fn, worker, i); err != nil {
						errs[i] = err
						failed.Do(func() { close(stop) })
					}
				}
			}
		}(w)
	}
	// Dispatch chunks in index order: when a failure closes stop, every
	// chunk at or below the failed index has already been handed out and
	// will run whole, while every undispatched chunk lies strictly above
	// it — so after wg.Wait the lowest non-nil error is stable across
	// runs. Cancellation closes the same window: no further chunk is
	// handed out, handed-out indices abort at their next internal ctx
	// check, and the workers exit when the job channel closes — nothing
	// leaks.
dispatch:
	for i := 0; i < n; i += chunk {
		select {
		case jobs <- i:
		case <-stop:
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call runs fn(worker, i), returning a panic in it as index i's error.
func call(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: index %d panicked: %v", i, r)
		}
	}()
	return fn(worker, i)
}
