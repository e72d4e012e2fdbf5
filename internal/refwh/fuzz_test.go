package refwh_test

import (
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/simulator"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// FuzzWormholeDifferential lets the fuzzer steer every config axis
// except FaultRate (fault configs are only statistically comparable —
// see the refwh package comment — and a fuzzer needs a crisp oracle).
// Any config that passes validation must produce exactly equal metrics
// from the optimized wormhole engine and the reference.
//
// Run with: go test -run '^$' -fuzz FuzzWormholeDifferential -fuzztime 10s ./internal/refwh
func FuzzWormholeDifferential(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(0), uint8(0), uint16(40000), uint8(4), uint8(2), uint8(2), uint16(200), uint8(10), uint8(0))
	f.Add(int64(2), uint8(0), uint8(1), uint8(1), uint8(1), uint16(60000), uint8(1), uint8(0), uint8(0), uint16(300), uint8(0), uint8(0x85))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(0), uint16(30000), uint8(7), uint8(5), uint8(3), uint16(150), uint8(30), uint8(0x47))
	f.Add(int64(4), uint8(1), uint8(2), uint8(3), uint8(1), uint16(65535), uint8(15), uint8(63), uint8(1), uint16(511), uint8(63), uint8(0xc2))
	f.Add(int64(5), uint8(0), uint8(0), uint8(4), uint8(0), uint16(50000), uint8(2), uint8(3), uint8(7), uint16(250), uint8(5), uint8(0x01))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, policyRaw, trafficRaw, switchRaw uint8,
		loadRaw uint16, flitsRaw, lanesRaw, depthRaw uint8, cyclesRaw uint16, warmupRaw, flags uint8) {
		N := 4 << (nRaw % 3) // 4, 8 or 16
		cfg := wormhole.Config{
			N:           N,
			Policy:      simulator.Policy(policyRaw % 3),
			Traffic:     simulator.TrafficKind(trafficRaw % 5),
			Switches:    simulator.SwitchModel(switchRaw % 2),
			Load:        float64(loadRaw) / 65535,
			PacketFlits: 1 + int(flitsRaw%16),
			Lanes:       1 + int(lanesRaw%64),
			LaneDepth:   1 + int(depthRaw%8),
			Cycles:      1 + int(cyclesRaw%512),
			Warmup:      int(warmupRaw % 64),
			Seed:        seed,
		}
		switch cfg.Traffic {
		case simulator.Hotspot:
			cfg.HotspotDest = int(flags % 0x40 % uint8(N))
			cfg.HotspotFrac = float64(flags%101) / 100
		case simulator.PermutationTraffic:
			// A rotation is always a valid permutation; which one the
			// fuzzer picks is up to flags.
			perm := make([]int, N)
			for i := range perm {
				perm[i] = (i + int(flags)) % N
			}
			cfg.Perm = perm
		}
		if flags&0x40 != 0 {
			blk := blockage.NewSet(topology.MustParams(N))
			blk.RandomLinks(rand.New(rand.NewSource(seed)), 1+int(flags%5))
			cfg.Blocked = blk
		}
		if err := wormhole.Validate(cfg); err != nil {
			t.Skip()
		}
		checkExact(t, cfg)
	})
}
