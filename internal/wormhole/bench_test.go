package wormhole

import (
	"fmt"
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/simulator"
	"iadm/internal/topology"
)

// BenchmarkWormholeCycles is the tracked wormhole benchmark: the
// steady-state cost of the flit-level cycle loop, with per-run setup
// amortized by a Runner (the loop itself performs zero heap
// allocations). Lane count is the main cost axis, so it gets the rows.
func BenchmarkWormholeCycles(b *testing.B) {
	for _, N := range []int{16, 64} {
		for _, lanes := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("N=%d/lanes=%d", N, lanes), func(b *testing.B) {
				r, err := NewRunner(Config{
					N: N, Policy: simulator.AdaptiveSSDT, Load: 0.6,
					PacketFlits: 4, Lanes: lanes, LaneDepth: 2,
					Cycles: 100, Warmup: 10, Traffic: simulator.Uniform,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.RunSeed(int64(i))
				}
			})
		}
	}
	// The sim-sweep shape: two lanes with blocked links, so the head
	// flits' routing ladder takes its blockage branch.
	b.Run("N=256/lanes=2/blocked", func(b *testing.B) {
		r, err := NewRunner(Config{
			N: 256, Policy: simulator.AdaptiveSSDT, Load: 0.3,
			PacketFlits: 4, Lanes: 2, LaneDepth: 4,
			Cycles: 30, Blocked: sweepBlocked(), IntraWorkers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunSeed(int64(i))
		}
	})
}

// BenchmarkWormholeRunMany is the sim-sweep request of the wormhole
// engine: four seeds of its config on two workers, so each worker builds
// one engine and reuses it once.
func BenchmarkWormholeRunMany(b *testing.B) {
	b.Run("N=256/lanes=2/blocked/workers=2", func(b *testing.B) {
		blk, sweep := sweepBlocked(), make([]Config, 4)
		for i := range sweep {
			sweep[i] = Config{
				N: 256, Policy: simulator.AdaptiveSSDT, Load: 0.3,
				PacketFlits: 4, Lanes: 2, LaneDepth: 4,
				Cycles: 30, Blocked: blk, IntraWorkers: 1,
			}
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range sweep {
				sweep[j].Seed = int64(i*len(sweep) + j)
			}
			if _, err := RunManyWorkers(sweep, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepBlocked folds the packet benchmark's eight blocked links of the
// N=1024 network onto N=256, as the sim-sweep does: the column modulo 256,
// links of stages past the last dropped.
func sweepBlocked() *blockage.Set {
	big := blockage.NewSet(topology.MustParams(1024))
	big.RandomNonstraight(rand.New(rand.NewSource(42)), 8)
	p := topology.MustParams(256)
	set := blockage.NewSet(p)
	for _, l := range big.Links() {
		if p.ValidStage(l.Stage) {
			set.Block(topology.Link{Stage: l.Stage, From: l.From % 256, Kind: l.Kind})
		}
	}
	return set
}

// BenchmarkWormholeLargeN is the tracked large-N benchmark: one run per N
// on the engine's one stepper. The cells keep their workers=1 names so
// the tracked baselines still match; a cell at more workers would time
// the same run, since IntraWorkers is ignored. Steady state must stay at
// 0 allocs/op.
func BenchmarkWormholeLargeN(b *testing.B) {
	for _, N := range []int{256, 1024} {
		b.Run(fmt.Sprintf("N=%d/workers=1", N), func(b *testing.B) {
			r, err := NewRunner(Config{
				N: N, Policy: simulator.AdaptiveSSDT, Load: 0.6,
				PacketFlits: 4, Lanes: 4, LaneDepth: 2,
				Cycles: 50, Warmup: 5, Traffic: simulator.Uniform,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunSeed(int64(i))
			}
		})
	}
}
