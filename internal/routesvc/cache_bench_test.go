package routesvc

import (
	"fmt"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// The tagstore benchmark suite (tracked in BENCH_tagstore.json): hit-path
// lookup cost and slab footprint for the two stores at matched entry
// counts — the preserved map cache (baseline) and the flat
// open-addressing cache. Both are built with one shard and exactly 13/16
// of a power-of-two capacity, which lands both at the same slot count
// (the map doubles at 7/8 load), so bits/route compares slab against
// slab rather than growth-point luck.

var tagStoreSizes = []int{256, 1024, 4096}

// tagStoreKeys builds 13N TSDT keys: every source once per 13 scattered
// destinations, the shape of a warm fleet partition.
func tagStoreKeys(N int) []cacheKey {
	keys := make([]cacheKey, 13*N)
	for i := range keys {
		// Scatter destinations with the high multiply bits: the low bits
		// of i*K mod N repeat with period N and would alias the 13 keys of
		// one source onto a single (src, dst) pair.
		keys[i] = cacheKey{src: int32(i % N), dst: int32(uint64(i) * 0x9E3779B97F4A7C15 >> 32 % uint64(N))}
	}
	return keys
}

func BenchmarkTagStoreFlat(b *testing.B) {
	for _, N := range tagStoreSizes {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			p := topology.MustParams(N)
			keys := tagStoreKeys(N)
			c := newTagCache(1, p)
			for i, k := range keys {
				c.put(k, cacheTagFor(p, k, uint64(i)), 3)
			}
			M := c.len()
			b.ResetTimer()
			var sink core.Tag
			for i := 0; i < b.N; i++ {
				k := keys[uint64(i)*0x9E3779B9%uint64(len(keys))]
				sink, _ = c.get(k, 3)
			}
			benchCacheSink = sink
			_, _, bytes := c.snapshot(3)
			b.ReportMetric(float64(bytes*8)/float64(M), "bits/route")
		})
	}
}

func BenchmarkTagStoreMap(b *testing.B) {
	for _, N := range tagStoreSizes {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			p := topology.MustParams(N)
			keys := tagStoreKeys(N)
			before := heapAllocBytes()
			c := newMapTagCache(1)
			for i, k := range keys {
				c.put(k, cacheTagFor(p, k, uint64(i)), 3)
			}
			bytes := heapAllocBytes() - before
			M := c.len()
			b.ResetTimer()
			var sink core.Tag
			for i := 0; i < b.N; i++ {
				k := keys[uint64(i)*0x9E3779B9%uint64(len(keys))]
				sink, _ = c.get(k, 3)
			}
			benchCacheSink = sink
			b.ReportMetric(float64(bytes*8)/float64(M), "bits/route")
		})
	}
}

var benchCacheSink core.Tag
