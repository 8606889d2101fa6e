package core

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"
	"testing"
)

// BenchmarkSubCacheParallel hammers the sub-frontier memo's lookup/store
// hot path from GOMAXPROCS goroutines over a fixed key population — the
// pure cache-coordination cost of a batch whose windows all hit or all
// insert, with the actual frontier computation stripped away. Under the
// single-mutex layout every operation serialized on one lock; the
// sharded layout spreads the same traffic over SubCacheShards locks, so
// this benchmark (and its -mutexprofile) is where the difference shows
// undiluted. BENCH_PR9.json does not record it — absolute numbers are
// dominated by map cost — but the mutex-profile comparison in
// EXPERIMENTS.md's lock-contention entry was captured from it.
func BenchmarkSubCacheParallel(b *testing.B) {
	cache := NewSubCache(0)
	const population = 4096
	keys := make([][]byte, population)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		k := make([]byte, 0, 24)
		k = append(k, 'R', byte(4+i%6))
		for j := 0; j < 4; j++ {
			k = binary.AppendVarint(k, int64(rng.Intn(8000)-4000))
		}
		keys[i] = k
	}
	entry := &subEntry{}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 127
		for pb.Next() {
			key := keys[i%population]
			i++
			shard := cache.shardOfBytes(key)
			if e := shard.lookup(key); e == nil {
				shard.store(key, entry, cache.perShard)
			}
		}
	})
}
