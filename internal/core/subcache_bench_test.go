package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

// BenchmarkSubCacheParallel hammers the memo's Get/Put hot path from
// GOMAXPROCS goroutines over a fixed key population — the pure
// cache-coordination cost of a batch whose windows all hit or all
// insert, with the actual frontier computation stripped away (entries
// hold no items). Under the single-mutex layout every operation
// serialized on one lock; the sharded layout spreads the same traffic
// over SubCacheShards locks, so this benchmark (and its -mutexprofile)
// is where the difference shows undiluted. BENCH_PR9.json does not
// record it — absolute numbers are dominated by map cost — but the
// mutex-profile comparison in EXPERIMENTS.md's lock-contention entry was
// captured from its lookup/store predecessor.
func BenchmarkSubCacheParallel(b *testing.B) {
	cache := NewSubCache(0)
	const population = 4096
	keys := make([]hanan.Key, population)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		net := tree.Net{Pins: make([]geom.Point, 4+i%6)}
		for j := range net.Pins {
			net.Pins[j] = geom.Pt(rng.Int63n(8000)-4000, rng.Int63n(8000)-4000)
		}
		keys[i].Set(net, false)
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 127
		for pb.Next() {
			key := &keys[i%population]
			i++
			if _, _, ok := cache.Get(key); !ok {
				cache.Put(key, nil, nil)
			}
		}
	})
}
