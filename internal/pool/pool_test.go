package pool

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestEachCoversAll: every index is visited exactly once at any worker
// count, including the serial path.
func TestEachCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		var mu sync.Mutex
		seen := make(map[int]int)
		err := Each(context.Background(), 100, workers, func(worker, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < 100; i++ {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, seen[i])
			}
		}
	}
}

// TestEachLowestError: when several jobs fail, the error of the
// lowest-failing index wins — the determinism contract callers (engine
// batches, hier cluster fan-out) rely on.
func TestEachLowestError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := Each(context.Background(), 50, workers, func(worker, i int) error {
			if i%7 == 3 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err %v, want job 3's", workers, err)
		}
	}
}

// TestEachPanicIsIndexError: a panicking fn fails its index like a
// returned error — on the serial path and in pool goroutines — and the
// lowest panicking index is reported, the process surviving both.
func TestEachPanicIsIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Each(context.Background(), 40, workers, func(worker, i int) error {
			if i == 9 || i == 31 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			return nil
		})
		if err == nil || err.Error() != "pool: index 9 panicked: boom at 9" {
			t.Fatalf("workers=%d: err %v, want index 9's panic", workers, err)
		}
	}
}

// TestEachChunkedLowestError stresses the lowest-failed-index guarantee
// across chunk boundaries: n large enough that chunked dispatch hands
// out multi-index chunks, failures scattered so the lowest one lands
// mid-chunk while a sibling chunk fails first in wall time (the later,
// slower failure has the lower index). Repeated runs must always report
// the lowest index — a received chunk runs whole even after another
// worker trips the stop signal.
func TestEachChunkedLowestError(t *testing.T) {
	const n = 4 * 8 * chunksPerWorker // several chunks per worker at every tested width
	for _, workers := range []int{2, 8, 32} {
		for run := 0; run < 20; run++ {
			err := Each(context.Background(), n, workers, func(worker, i int) error {
				switch {
				case i == 5:
					// Lowest failure, delayed past the eager one below.
					for s := 0; s < 1<<12; s++ {
						_ = s
					}
					return fmt.Errorf("job %d failed", i)
				case i >= n/2 && i%3 == 0:
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 5 failed" {
				t.Fatalf("workers=%d run=%d: err %v, want job 5's", workers, run, err)
			}
		}
	}
}

// TestEachChunkCoversAll: index coverage holds when n is not a multiple
// of the chunk size (the last chunk is short, not overrun).
func TestEachChunkCoversAll(t *testing.T) {
	const n = 8*chunksPerWorker*4 + 3
	var mu sync.Mutex
	seen := make(map[int]int)
	err := Each(context.Background(), n, 8, func(worker, i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i])
		}
	}
	if len(seen) != n {
		t.Fatalf("%d distinct indices visited, want %d", len(seen), n)
	}
}

// TestEachPreCancelled: a cancelled context wins over job errors on the
// serial path and aborts promptly on the parallel path.
func TestEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		ran := 0
		err := Each(ctx, 10, workers, func(worker, i int) error {
			ran++
			return nil
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran != 0 {
			t.Fatalf("serial path ran %d jobs under a cancelled context", ran)
		}
	}
}
