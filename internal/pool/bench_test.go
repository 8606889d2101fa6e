package pool

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkEach measures the dispatch overhead of the parallel-for on
// per-index work of varying cost. The work=tiny rows are the small-net
// batch regime — a few hundred nanoseconds of routing per index — where
// per-index channel operations used to dominate; chunked dispatch
// amortizes one channel round trip over a run of indices. The work=spin
// rows model mid-sized nets and bound the load-balancing cost of
// chunking. BENCH_PR9.json froze the suite.
func BenchmarkEach(b *testing.B) {
	spin := func(iters int) int64 {
		var s int64
		for i := 0; i < iters; i++ {
			s += int64(i)
		}
		return s
	}
	var sink atomic.Int64
	for _, c := range []struct {
		name  string
		iters int
	}{
		{"tiny", 16},
		{"spin", 2048},
	} {
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("work=%s/workers=%d", c.name, workers), func(b *testing.B) {
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := Each(ctx, 1024, workers, func(worker, j int) error {
						sink.Store(spin(c.iters))
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
