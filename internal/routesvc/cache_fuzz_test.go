package routesvc

import (
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// FuzzTagCache round-trips REROUTE tags through the flat cache: under a
// random nonstraight blockage map, every tag REROUTE produces must come
// back bit-identical from the flat store at its epoch (and agree with the
// preserved map cache), miss at any other epoch, and reassemble through
// core.TagFromState from its destination and state bits — the only
// fields a slot keeps.
func FuzzTagCache(f *testing.F) {
	f.Add(uint8(3), uint16(0), uint64(1))
	f.Add(uint8(5), uint16(37), uint64(99))
	f.Add(uint8(6), uint16(512), uint64(12345))
	f.Fuzz(func(t *testing.T, nPow uint8, pair uint16, seed uint64) {
		n := int(nPow%5) + 2 // stages 2..6, N 4..64
		p := topology.MustParams(1 << n)
		N := p.Size()
		rng := rand.New(rand.NewSource(int64(seed)))
		blk := blockage.NewSet(p)
		blk.RandomNonstraight(rng, rng.Intn(4))

		flat := newTagCache(2, p)
		ref := newMapTagCache(2)
		epoch := seed % 1000
		src := int(pair) % N
		type entry struct {
			k   cacheKey
			tag core.Tag
		}
		var stored []entry
		// A run of destinations from one source: enough entries to grow
		// a 64-slot shard on the larger sizes.
		for i := 0; i < 80; i++ {
			dst := (int(pair>>8) + i) % N
			tag, _, err := core.Reroute(p, blk, src, core.MustTag(p, dst))
			if err != nil {
				continue // unroutable under this blockage map; nothing to store
			}
			if re := core.TagFromState(p, tag.Destination(), tag.StateBits()); re != tag {
				t.Fatalf("TagFromState: %v, want %v", re, tag)
			}
			k := cacheKey{src: int32(src), dst: int32(dst)}
			flat.put(k, tag, epoch)
			ref.put(k, tag, epoch)
			stored = append(stored, entry{k, tag})
		}
		for _, e := range stored {
			got, ok := flat.get(e.k, epoch)
			if !ok || got != e.tag {
				t.Fatalf("flat round-trip %+v: %v, %v (want %v)", e.k, got, ok, e.tag)
			}
			if rt, rok := ref.get(e.k, epoch); !rok || rt != got {
				t.Fatalf("map cache disagrees on %+v: %v, %v", e.k, rt, rok)
			}
			if _, ok := flat.get(e.k, epoch+1); ok {
				t.Fatalf("stale-epoch lookup hit for %+v", e.k)
			}
		}
		if fl, rl := flat.len(), ref.len(); fl != rl {
			t.Fatalf("flat len %d, map len %d", fl, rl)
		}
		if fr, rr := flat.sweep(epoch+1), ref.sweep(epoch+1); fr != rr || flat.len() != 0 {
			t.Fatalf("sweep at a newer epoch: flat removed %d, map %d, %d left", fr, rr, flat.len())
		}
	})
}
