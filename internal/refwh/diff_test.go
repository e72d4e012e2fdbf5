package refwh_test

import (
	"fmt"
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/refwh"
	"iadm/internal/simulator"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// stratifiedConfig builds the i-th config of the differential sweep. The
// index is decomposed so that 120 consecutive indices cover the full
// cross product of the qualitative axes exactly once each:
//
//	traffic(5) x switch model(2) x policy(3) x blocked(2) x faulty(2)
//
// while the quantitative knobs (N, load, packet length, lane count and
// depth, cycles, warmup, hotspot/permutation details) are drawn from a
// per-index PRNG, so every combination is also exercised at an arbitrary
// operating point of the wormhole-specific axes.
func stratifiedConfig(i int) wormhole.Config {
	traffic := simulator.TrafficKind(i % 5)
	swModel := simulator.SwitchModel((i / 5) % 2)
	policy := simulator.Policy((i / 10) % 3)
	blocked := (i/30)%2 == 1
	faulty := (i/60)%2 == 1

	r := rand.New(rand.NewSource(int64(2000 + i)))
	N := 4 << r.Intn(3) // 4, 8 or 16
	cfg := wormhole.Config{
		N:           N,
		Policy:      policy,
		Load:        0.1 + 0.9*r.Float64(),
		PacketFlits: 1 + r.Intn(8),
		Lanes:       1 + r.Intn(6),
		LaneDepth:   1 + r.Intn(4),
		Cycles:      150 + r.Intn(150),
		Warmup:      r.Intn(60),
		Seed:        int64(2_000_000 + i),
		Traffic:     traffic,
		Switches:    swModel,
	}
	switch traffic {
	case simulator.Hotspot:
		cfg.HotspotDest = r.Intn(N)
		cfg.HotspotFrac = r.Float64()
	case simulator.PermutationTraffic:
		cfg.Perm = r.Perm(N)
	}
	if blocked {
		blk := blockage.NewSet(topology.MustParams(N))
		blk.RandomLinks(r, 1+r.Intn(4))
		cfg.Blocked = blk
	}
	if faulty {
		cfg.FaultRate = 0.002 + 0.02*r.Float64()
		cfg.RepairCycles = 1 + r.Intn(20)
		// Fault configs are compared statistically (the draw counts differ
		// between the implementations), so give the comparison a longer
		// measurement window to settle in.
		cfg.Cycles = 1500
		cfg.Warmup = r.Intn(50)
	}
	return cfg
}

// TestDifferentialStratified cross-validates the optimized wormhole
// engine against the reference over 120 configs covering every
// combination of traffic kind, switch model, routing policy, blockage
// and faults, each at a random wormhole operating point (packet length,
// lane count, lane depth). Fault-free configs must agree exactly; faulty
// ones statistically. This is the fault-free config sweep the wormhole
// mode's acceptance rests on.
func TestDifferentialStratified(t *testing.T) {
	for i := 0; i < 120; i++ {
		cfg := stratifiedConfig(i)
		name := fmt.Sprintf("%03d/%s/%s/%s", i, cfg.Traffic, cfg.Switches, cfg.Policy)
		t.Run(name, func(t *testing.T) {
			if cfg.FaultRate > 0 {
				checkStatistical(t, cfg)
			} else {
				checkExact(t, cfg)
			}
		})
	}
}

// TestMetamorphicSeedDeterminism: the optimized wormhole engine is a
// pure function of its config — two runs of the same config are
// bit-equal.
func TestMetamorphicSeedDeterminism(t *testing.T) {
	cfgs := []wormhole.Config{
		{N: 8, Policy: simulator.AdaptiveSSDT, Load: 0.8, PacketFlits: 4, Lanes: 2,
			LaneDepth: 2, Cycles: 500, Warmup: 50, Seed: 3},
		{N: 16, Policy: simulator.RandomState, Load: 0.6, PacketFlits: 2, Lanes: 4,
			LaneDepth: 1, Cycles: 400, Seed: 9,
			FaultRate: 0.01, RepairCycles: 10, Switches: simulator.SingleInput},
		{N: 8, Policy: simulator.StaticC, Load: 0.9, PacketFlits: 8, Lanes: 1,
			LaneDepth: 4, Cycles: 300, Seed: 5,
			Traffic: simulator.Hotspot, HotspotFrac: 0.3},
	}
	for i, cfg := range cfgs {
		a, err := wormhole.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		b, err := wormhole.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if a.Injected != b.Injected || a.Delivered != b.Delivered ||
			a.Dropped != b.Dropped || a.Refused != b.Refused ||
			a.FlitsInjected != b.FlitsInjected || a.FlitsDelivered != b.FlitsDelivered ||
			a.MaxLaneDepth != b.MaxLaneDepth || a.MeanLaneOcc != b.MeanLaneOcc ||
			a.Throughput != b.Throughput ||
			a.Latency.Mean() != b.Latency.Mean() ||
			a.Latency.Variance() != b.Latency.Variance() {
			t.Errorf("config %d not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestMetamorphicWarmupShift: measurement never perturbs dynamics — the
// measured flag only gates counters — so the counters over a window are
// additive: measuring [0,W) and [W,W+C) separately must sum to measuring
// [0,W+C) in one run. This holds for both implementations.
func TestMetamorphicWarmupShift(t *testing.T) {
	base := wormhole.Config{
		N: 8, Policy: simulator.AdaptiveSSDT, Load: 0.85, PacketFlits: 4,
		Lanes: 2, LaneDepth: 2, Seed: 17,
		Traffic: simulator.Hotspot, HotspotDest: 3, HotspotFrac: 0.25,
		Switches: simulator.SingleInput,
	}
	const W, C = 120, 380
	runners := []struct {
		name string
		run  func(wormhole.Config) (wormhole.Metrics, error)
	}{
		{"wormhole", wormhole.Run},
		{"refwh", refwh.Run},
	}
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			head := base
			head.Warmup, head.Cycles = 0, W
			tail := base
			tail.Warmup, tail.Cycles = W, C
			whole := base
			whole.Warmup, whole.Cycles = 0, W+C
			mh, err := rn.run(head)
			if err != nil {
				t.Fatal(err)
			}
			mt, err := rn.run(tail)
			if err != nil {
				t.Fatal(err)
			}
			mw, err := rn.run(whole)
			if err != nil {
				t.Fatal(err)
			}
			sums := []struct {
				name              string
				head, tail, whole int
			}{
				{"Injected", mh.Injected, mt.Injected, mw.Injected},
				{"Delivered", mh.Delivered, mt.Delivered, mw.Delivered},
				{"Dropped", mh.Dropped, mt.Dropped, mw.Dropped},
				{"Refused", mh.Refused, mt.Refused, mw.Refused},
				{"FlitsInjected", mh.FlitsInjected, mt.FlitsInjected, mw.FlitsInjected},
				{"FlitsDelivered", mh.FlitsDelivered, mt.FlitsDelivered, mw.FlitsDelivered},
				{"FlitsDropped", mh.FlitsDropped, mt.FlitsDropped, mw.FlitsDropped},
				{"Latency.N", mh.Latency.N(), mt.Latency.N(), mw.Latency.N()},
			}
			for _, s := range sums {
				if s.head+s.tail != s.whole {
					t.Errorf("%s not additive across the warmup shift: %d + %d != %d",
						s.name, s.head, s.tail, s.whole)
				}
			}
			// MaxLaneDepth spans the whole run (warmup included) in both the
			// shifted and unshifted forms, so it must match outright.
			if mt.MaxLaneDepth != mw.MaxLaneDepth {
				t.Errorf("MaxLaneDepth = %d shifted vs %d whole", mt.MaxLaneDepth, mw.MaxLaneDepth)
			}
			if mh.MaxLaneDepth > mw.MaxLaneDepth {
				t.Errorf("prefix MaxLaneDepth %d exceeds whole-run MaxLaneDepth %d",
					mh.MaxLaneDepth, mw.MaxLaneDepth)
			}
		})
	}
}
