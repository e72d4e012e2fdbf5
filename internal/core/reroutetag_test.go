package core

import (
	"errors"
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// errClass buckets an error the way serving layers tell outcomes apart:
// success, FAIL (wraps ErrNoPath), or any other error.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrNoPath):
		return "nopath"
	}
	return "other"
}

// checkRerouteTag requires RerouteTag to return REROUTE's tag and error
// class for (s, d) under blk.
func checkRerouteTag(t *testing.T, p topology.Params, blk *blockage.Set, s, d int) {
	t.Helper()
	got, gotErr := RerouteTag(p, blk, s, d)
	want, _, wantErr := Reroute(p, blk, s, MustTag(p, d))
	if errClass(gotErr) != errClass(wantErr) || got != want {
		t.Fatalf("N=%d (%d→%d) blk=%v: RerouteTag = %v, %v; Reroute = %v, %v",
			p.Size(), s, d, blk, got, gotErr, want, wantErr)
	}
}

// rerouteTagMaps builds the blockage maps the table test sweeps: no
// faults, nonstraight faults only (single- and double-nonstraight
// switches), straight faults, a dense mix of every link kind, and switch
// faults through the input-link transformation.
func rerouteTagMaps(p topology.Params, rng *rand.Rand) []*blockage.Set {
	links := 3 * p.Size() * p.Stages()

	single := blockage.NewSet(p)
	single.RandomNonstraight(rng, max(1, links/24))

	double := blockage.NewSet(p)
	for k := 0; k < max(1, p.Size()*p.Stages()/16); k++ {
		i, j := rng.Intn(p.Stages()), rng.Intn(p.Size())
		double.Block(topology.Link{Stage: i, From: j, Kind: topology.Plus})
		double.Block(topology.Link{Stage: i, From: j, Kind: topology.Minus})
	}
	double.RandomNonstraight(rng, max(1, links/32))

	straight := blockage.NewSet(p)
	for k := 0; k < max(1, p.Size()*p.Stages()/16); k++ {
		straight.Block(topology.Link{Stage: rng.Intn(p.Stages()), From: rng.Intn(p.Size()), Kind: topology.Straight})
	}
	straight.RandomNonstraight(rng, max(1, links/32))

	mixed := blockage.NewSet(p)
	mixed.RandomLinks(rng, max(1, links/8))

	sw := blockage.NewSet(p)
	for k := 0; k < max(1, p.Size()*p.Stages()/32); k++ {
		if _, err := sw.BlockSwitch(topology.Switch{Stage: 1 + rng.Intn(p.Stages()), Index: rng.Intn(p.Size())}); err != nil {
			panic(err)
		}
	}
	sw.RandomNonstraight(rng, max(1, links/32))
	return []*blockage.Set{blockage.NewSet(p), single, double, straight, mixed, sw}
}

// TestRerouteTagMatchesReroute pins the fast walk to the paper-faithful
// REROUTE: on every map of rerouteTagMaps, every pair (a seeded sample at
// N=1024) gets REROUTE's tag and error class, unroutable pairs included.
func TestRerouteTagMatchesReroute(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, N := range []int{2, 8, 64, 1024} {
		p := topology.MustParams(N)
		for _, blk := range rerouteTagMaps(p, rng) {
			if N <= 64 {
				for s := 0; s < N; s++ {
					for d := 0; d < N; d++ {
						checkRerouteTag(t, p, blk, s, d)
					}
				}
				continue
			}
			for k := 0; k < 4096; k++ {
				checkRerouteTag(t, p, blk, rng.Intn(N), rng.Intn(N))
			}
		}
		// Out-of-range endpoints are an error of the same class, not a
		// panic.
		blk := blockage.NewSet(p)
		for _, pr := range [][2]int{{-1, 0}, {N, 0}, {0, N}, {0, -1}} {
			if _, err := RerouteTag(p, blk, pr[0], pr[1]); errClass(err) != "other" {
				t.Fatalf("N=%d RerouteTag(%d, %d) err = %v, want an endpoint error", N, pr[0], pr[1], err)
			}
		}
	}
}

// TestRerouteTagAllocs: a walk that meets only single-nonstraight
// blockages answers without touching the heap.
func TestRerouteTagAllocs(t *testing.T) {
	p := topology.MustParams(1024)
	blk := blockage.NewSet(p)
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 400; k++ {
		// One nonstraight link per switch at most: no walk needs BACKTRACK.
		i, j := rng.Intn(p.Stages()), rng.Intn(p.Size())
		if !blk.Blocked(topology.Link{Stage: i, From: j, Kind: topology.Plus}) {
			blk.Block(topology.Link{Stage: i, From: j, Kind: topology.Minus})
		}
	}
	pairs := make([][2]int, 0, 64)
	for len(pairs) < cap(pairs) {
		s, d := rng.Intn(1024), rng.Intn(1024)
		tag, err := RerouteTag(p, blk, s, d)
		if err != nil {
			continue
		}
		if tag.StateBits() != 0 {
			pairs = append(pairs, [2]int{s, d})
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, pr := range pairs {
			_, _ = RerouteTag(p, blk, pr[0], pr[1])
		}
	})
	if allocs != 0 {
		t.Fatalf("RerouteTag allocates %.1f times per 64 flip walks, want 0", allocs)
	}
}

// FuzzRerouteTag: over random sizes and maps — single- and
// double-nonstraight, straight, and switch faults — RerouteTag returns
// REROUTE's tag and error class for the fuzzed pair.
func FuzzRerouteTag(f *testing.F) {
	f.Add(uint8(3), uint64(0), uint64(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint8(3), uint64(0x0123456789ABCDEF), uint64(0x0F0F), uint16(1), uint16(6), uint8(1))
	f.Add(uint8(6), uint64(0xDEADBEEFCAFEF00D), uint64(0x8421), uint16(13), uint16(50), uint8(2))
	f.Add(uint8(10), uint64(^uint64(0)), uint64(0x5555), uint16(999), uint16(7), uint8(3))
	f.Fuzz(func(t *testing.T, nv uint8, faultBits, doubleBits uint64, sv, dv uint16, swv uint8) {
		n := 1 + int(nv)%10 // N in 2..1024
		p := topology.MustParams(1 << uint(n))
		rng := rand.New(rand.NewSource(int64(faultBits ^ doubleBits<<7)))
		blk := blockage.NewSet(p)
		// A sparse random map of every link kind, denser on small nets.
		for k := 0; k < 1+int(faultBits%uint64(2*p.Size()*p.Stages()/3+1)); k++ {
			blk.Block(topology.LinkFromIndex(p, rng.Intn(3*p.Size()*p.Stages())))
		}
		// Double-nonstraight switches.
		for k := 0; k < int(doubleBits%5); k++ {
			i, j := rng.Intn(p.Stages()), rng.Intn(p.Size())
			blk.Block(topology.Link{Stage: i, From: j, Kind: topology.Plus})
			blk.Block(topology.Link{Stage: i, From: j, Kind: topology.Minus})
		}
		// Switch faults through the input-link transformation.
		for k := 0; k < int(swv%4); k++ {
			if _, err := blk.BlockSwitch(topology.Switch{Stage: 1 + rng.Intn(p.Stages()), Index: rng.Intn(p.Size())}); err != nil {
				t.Fatal(err)
			}
		}
		s, d := int(sv)&(p.Size()-1), int(dv)&(p.Size()-1)
		checkRerouteTag(t, p, blk, s, d)
	})
}
