package routesvc

import (
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

func TestCacheShardRounding(t *testing.T) {
	p := topology.MustParams(8)
	for _, tc := range []struct{ in, want int }{
		{0, defaultShards}, {-3, defaultShards}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		c := newTagCache(tc.in, p)
		if len(c.shards) != tc.want {
			t.Errorf("newTagCache(%d): %d shards, want %d", tc.in, len(c.shards), tc.want)
		}
		if c.mask != uint64(tc.want-1) {
			t.Errorf("newTagCache(%d): mask %x", tc.in, c.mask)
		}
	}
}

func TestCacheEpochStamping(t *testing.T) {
	p := topology.MustParams(8)
	c := newTagCache(4, p)
	k := cacheKey{src: 1, dst: 5}
	tag := core.MustTag(p, 5)

	if _, ok := c.get(k, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, tag, 3)
	if got, ok := c.get(k, 3); !ok || got != tag {
		t.Fatal("miss at the stamped epoch")
	}
	if _, ok := c.get(k, 4); ok {
		t.Fatal("stale entry served at a newer epoch")
	}
	if _, ok := c.get(k, 2); ok {
		t.Fatal("entry served at an older epoch")
	}

	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	if removed := c.sweep(9); removed != 1 {
		t.Fatalf("sweep removed %d, want 1 (the stale entry)", removed)
	}
}

func TestCacheKeysDoNotCollide(t *testing.T) {
	// Swapped pairs are distinct keys.
	p := topology.MustParams(8)
	c := newTagCache(1, p) // one shard: collisions would overwrite
	t1, t2 := core.MustTag(p, 5), core.MustTag(p, 1)
	c.put(cacheKey{src: 1, dst: 5}, t1, 7)
	c.put(cacheKey{src: 5, dst: 1}, t2, 7)
	if got, _ := c.get(cacheKey{src: 1, dst: 5}, 7); got != t1 {
		t.Error("pair (1,5) clobbered")
	}
	if got, _ := c.get(cacheKey{src: 5, dst: 1}, 7); got != t2 {
		t.Error("pair (5,1) clobbered")
	}
}

// TestCacheConcurrent exercises all shard locks under the race detector.
func TestCacheConcurrent(t *testing.T) {
	p := topology.MustParams(16)
	c := newTagCache(8, p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := cacheKey{src: int32(g), dst: int32(i % 16)}
				c.put(k, core.MustTag(p, i%16), uint64(i%4))
				c.get(k, uint64(i%4))
				if i%100 == 0 {
					c.sweep(uint64(i % 4))
					c.len()
				}
			}
		}(g)
	}
	wg.Wait()
}
