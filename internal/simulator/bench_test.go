package simulator

import (
	"fmt"
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// BenchmarkCyclesPerSecond is the tracked simulator benchmark: the
// steady-state cost of the cycle loop, with per-run setup amortized by a
// Runner (the loop itself performs zero heap allocations). Every policy
// has a row so a regression in any selection rule shows up.
func BenchmarkCyclesPerSecond(b *testing.B) {
	for _, N := range []int{8, 64} {
		for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
			b.Run(fmt.Sprintf("N=%d/%s", N, pol), func(b *testing.B) {
				r, err := NewRunner(Config{
					N: N, Policy: pol, Load: 0.5, QueueCap: 4,
					Cycles: 100, Warmup: 10, Traffic: Uniform,
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
	// The sim-sweep shape: near saturation with blocked links, so the
	// routing ladder takes its blockage branch.
	b.Run("N=1024/blocked", func(b *testing.B) {
		r, err := NewRunner(Config{
			N: 1024, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4,
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

// sweepBlocked blocks eight random nonstraight links of the N=1024
// network, drawn from a fixed seed (the sim-sweep blocks eight).
func sweepBlocked() *blockage.Set {
	set := blockage.NewSet(topology.MustParams(1024))
	set.RandomNonstraight(rand.New(rand.NewSource(42)), 8)
	return set
}

// BenchmarkRunOneShot measures the convenience Run path including its
// per-run setup allocations (the shape the seed implementation's
// BenchmarkCyclesPerSecond reported).
func BenchmarkRunOneShot(b *testing.B) {
	for _, N := range []int{8, 64} {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := Run(Config{
					N: N, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4,
					Cycles: 100, Warmup: 10, Seed: int64(i), Traffic: Uniform,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunMany measures the parallel fan-out over a batch of
// independent runs at several worker counts (workers=1 is the serial
// baseline; speedup tops out at the machine's core count).
func BenchmarkRunMany(b *testing.B) {
	const batch = 16
	cfgs := make([]Config, batch)
	for i := range cfgs {
		cfgs[i] = Config{
			N: 16, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4,
			Cycles: 200, Warmup: 20, Seed: int64(i), Traffic: Uniform,
		}
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunManyWorkers(cfgs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The sim-sweep request: four seeds of its packet config on two
	// workers, so each worker builds one engine and reuses it once.
	b.Run("N=1024/blocked/workers=2", func(b *testing.B) {
		blk, sweep := sweepBlocked(), make([]Config, 4)
		for i := range sweep {
			sweep[i] = Config{
				N: 1024, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4,
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

func BenchmarkHotspotRun(b *testing.B) {
	r, err := NewRunner(Config{
		N: 16, Policy: AdaptiveSSDT, Load: 0.6, QueueCap: 4,
		Cycles: 200, Warmup: 20,
		Traffic: Hotspot, HotspotDest: 0, HotspotFrac: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunSeed(int64(i))
	}
}

// BenchmarkLargeN is the tracked large-N benchmark: one run per N on the
// engine's one stepper. The cells keep their workers=1 names so the
// tracked baselines still match; a cell at more workers would time the
// same run, since IntraWorkers is ignored. Cycle counts
// are kept small so the grid stays tractable; ns/op comparisons are only
// meaningful within one N. Steady state must stay at 0 allocs/op.
func BenchmarkLargeN(b *testing.B) {
	for _, N := range []int{256, 1024, 4096} {
		cycles := 50
		if N >= 4096 {
			cycles = 40
		}
		b.Run(fmt.Sprintf("N=%d/workers=1", N), func(b *testing.B) {
			r, err := NewRunner(Config{
				N: N, Policy: AdaptiveSSDT, Load: 0.6, QueueCap: 4,
				Cycles: cycles, Warmup: 5, Traffic: Uniform,
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
