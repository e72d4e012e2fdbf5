package wormhole

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/simulator"
	"iadm/internal/topology"
)

// metricsEqual compares two Metrics for bit-identical results, including
// the full latency and utilization distributions.
func metricsEqual(a, b Metrics) bool {
	if a.Injected != b.Injected || a.Delivered != b.Delivered ||
		a.Dropped != b.Dropped || a.Refused != b.Refused ||
		a.FlitsInjected != b.FlitsInjected || a.FlitsDelivered != b.FlitsDelivered ||
		a.FlitsDropped != b.FlitsDropped ||
		a.MaxLaneDepth != b.MaxLaneDepth || a.MeanLaneOcc != b.MeanLaneOcc ||
		a.Throughput != b.Throughput || a.FlitThroughput != b.FlitThroughput {
		return false
	}
	return reflect.DeepEqual(a.Latency, b.Latency) &&
		reflect.DeepEqual(a.UtilStraight, b.UtilStraight) &&
		reflect.DeepEqual(a.UtilNonstraight, b.UtilNonstraight)
}

func baseConfig() Config {
	return Config{
		N: 16, Policy: simulator.AdaptiveSSDT, Load: 0.4,
		PacketFlits: 4, Lanes: 2, LaneDepth: 2,
		Cycles: 400, Warmup: 40, Seed: 1, Traffic: simulator.Uniform,
	}
}

// sampleConfigs is a mixed batch exercising traffic patterns, policies,
// switch models, lane geometries, blockages and the fault model — the
// shared input for the invariant and worker-invariance tests.
func sampleConfigs(t *testing.T) []Config {
	t.Helper()
	var cfgs []Config
	for i, pol := range []simulator.Policy{simulator.StaticC, simulator.RandomState, simulator.AdaptiveSSDT} {
		cfg := baseConfig()
		cfg.Policy = pol
		cfg.Seed = int64(100 + i)
		cfgs = append(cfgs, cfg)
	}
	single := baseConfig()
	single.PacketFlits = 1
	single.Lanes = 1
	single.LaneDepth = 3
	single.Switches = simulator.SingleInput
	cfgs = append(cfgs, single)
	wide := baseConfig()
	wide.Lanes = 64
	wide.LaneDepth = 1
	wide.Load = 0.9
	cfgs = append(cfgs, wide)
	hot := baseConfig()
	hot.Traffic = simulator.Hotspot
	hot.HotspotDest = 3
	hot.HotspotFrac = 0.2
	cfgs = append(cfgs, hot)
	bc := baseConfig()
	bc.Traffic = simulator.BitComplementTraffic
	bc.Load = 0.8
	cfgs = append(cfgs, bc)
	perm := baseConfig()
	perm.Traffic = simulator.PermutationTraffic
	perm.Perm = rand.New(rand.NewSource(5)).Perm(perm.N)
	cfgs = append(cfgs, perm)
	torn := baseConfig()
	torn.Traffic = simulator.Tornado
	cfgs = append(cfgs, torn)
	p, err := topology.NewParams(16)
	if err != nil {
		t.Fatal(err)
	}
	blk := blockage.NewSet(p)
	blk.Block(topology.Link{Stage: 1, From: 3, Kind: topology.Plus})
	blk.Block(topology.Link{Stage: 2, From: 9, Kind: topology.Straight})
	blocked := baseConfig()
	blocked.Blocked = blk
	blocked.Load = 0.7
	cfgs = append(cfgs, blocked)
	flt := baseConfig()
	flt.FaultRate = 0.002
	flt.RepairCycles = 25
	flt.Switches = simulator.SingleInput
	cfgs = append(cfgs, flt)
	return cfgs
}

// TestInvariantsOverSampleConfigs arms the per-cycle checker for the
// whole mixed batch: flit conservation, credit balance, lane/mask
// agreement and claim-route consistency must hold on every cycle of
// every config, under both engines.
func TestInvariantsOverSampleConfigs(t *testing.T) {
	old := invariantsEnabled
	invariantsEnabled = true
	defer func() { invariantsEnabled = old }()
	for i, cfg := range sampleConfigs(t) {
		for _, p := range []int{0, 3} {
			cfg.IntraWorkers = p
			if _, err := Run(cfg); err != nil {
				t.Fatalf("cfg %d intra %d: %v", i, p, err)
			}
		}
	}
}

// TestBasicDelivery pins the gross shape of a healthy run: traffic
// flows, flit counters track packet counters, and latency is at least
// the pipeline depth.
func TestBasicDelivery(t *testing.T) {
	cfg := baseConfig()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delivered == 0 {
		t.Fatal("no packets delivered at load 0.4")
	}
	if m.Dropped != 0 || m.FlitsDropped != 0 {
		t.Fatalf("drops on a fault-free unblocked network: %d packets / %d flits", m.Dropped, m.FlitsDropped)
	}
	if m.FlitsDelivered < m.Delivered*cfg.PacketFlits/2 {
		t.Fatalf("flit deliveries %d implausibly low for %d packets of %d flits",
			m.FlitsDelivered, m.Delivered, cfg.PacketFlits)
	}
	// A worm needs n hops to the output column plus one cycle per
	// remaining flit behind the tail.
	p, _ := topology.NewParams(cfg.N)
	if minLat := float64(p.Stages() + cfg.PacketFlits - 1); m.Latency.Min() < minLat {
		t.Fatalf("latency min %v below pipeline depth %v", m.Latency.Min(), minLat)
	}
	if m.Latency.N() != m.Delivered {
		t.Fatalf("latency samples %d != delivered %d", m.Latency.N(), m.Delivered)
	}
	if m.MaxLaneDepth > cfg.LaneDepth {
		t.Fatalf("lane overflow: max depth %d > configured %d", m.MaxLaneDepth, cfg.LaneDepth)
	}
	if m.Throughput <= 0 || m.FlitThroughput < m.Throughput {
		t.Fatalf("throughput %v / flit throughput %v inconsistent", m.Throughput, m.FlitThroughput)
	}
}

// TestZeroLoad: an idle network does nothing.
func TestZeroLoad(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Injected != 0 || m.Delivered != 0 || m.FlitsInjected != 0 || m.MaxLaneDepth != 0 {
		t.Fatalf("zero-load run moved traffic: %+v", m)
	}
}

// TestSeedDeterminism: the same seed reproduces bit-identical metrics;
// different seeds do not (at these sizes a collision would itself be a
// bug in the counter RNG).
func TestSeedDeterminism(t *testing.T) {
	cfg := baseConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !metricsEqual(a, b) {
		t.Fatalf("same seed diverged:\n a %+v\n b %+v", a, b)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if metricsEqual(a, c) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// TestBlockedInjectionDrops: blocking every outgoing link of one source
// turns that source's packets into inject-time drops, and the per-cycle
// invariants keep holding.
func TestBlockedInjectionDrops(t *testing.T) {
	old := invariantsEnabled
	invariantsEnabled = true
	defer func() { invariantsEnabled = old }()
	p, err := topology.NewParams(16)
	if err != nil {
		t.Fatal(err)
	}
	blk := blockage.NewSet(p)
	for _, k := range []topology.LinkKind{topology.Minus, topology.Straight, topology.Plus} {
		blk.Block(topology.Link{Stage: 0, From: 5, Kind: k})
	}
	cfg := baseConfig()
	cfg.Blocked = blk
	cfg.Load = 1
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped == 0 {
		t.Fatal("walled-off source produced no drops")
	}
	if m.Delivered == 0 {
		t.Fatal("other sources should still deliver")
	}
}

// TestRunnerReuse checks that a Runner's buffers (and pool, when sharded)
// rewind exactly between runs: interleaved seeds reproduce their
// first-run metrics, and Close is idempotent.
func TestRunnerReuse(t *testing.T) {
	for _, intra := range []int{0, 4} {
		t.Run(fmt.Sprintf("intra%d", intra), func(t *testing.T) {
			cfg := baseConfig()
			cfg.IntraWorkers = intra
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			first := make(map[int64]Metrics)
			for _, seed := range []int64{1, 2, 3} {
				m := r.RunSeed(seed)
				// Copy: stream storage is reused across runs.
				first[seed] = Metrics{Injected: m.Injected, Delivered: m.Delivered,
					Dropped: m.Dropped, Refused: m.Refused,
					FlitsInjected: m.FlitsInjected, FlitsDelivered: m.FlitsDelivered,
					FlitsDropped: m.FlitsDropped, MaxLaneDepth: m.MaxLaneDepth,
					MeanLaneOcc: m.MeanLaneOcc, Throughput: m.Throughput,
					FlitThroughput: m.FlitThroughput}
			}
			for _, seed := range []int64{3, 1, 2, 1} {
				got := r.RunSeed(seed)
				want := first[seed]
				if got.Injected != want.Injected || got.Delivered != want.Delivered ||
					got.Dropped != want.Dropped || got.Refused != want.Refused ||
					got.FlitsInjected != want.FlitsInjected ||
					got.FlitsDelivered != want.FlitsDelivered ||
					got.FlitsDropped != want.FlitsDropped ||
					got.MaxLaneDepth != want.MaxLaneDepth ||
					got.MeanLaneOcc != want.MeanLaneOcc ||
					got.Throughput != want.Throughput ||
					got.FlitThroughput != want.FlitThroughput {
					t.Fatalf("seed %d not reproducible on reuse", seed)
				}
			}
			r.Close() // second Close must be a no-op
		})
	}
}

// TestRunManyMatchesRun: fanning a batch out across workers yields
// bit-identical Metrics, in order, to running each config serially.
func TestRunManyMatchesRun(t *testing.T) {
	cfgs := sampleConfigs(t)
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		want[i] = m
	}
	for _, workers := range []int{1, 2, 5} {
		got, err := RunManyWorkers(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			if !metricsEqual(got[i], want[i]) {
				t.Errorf("workers=%d cfg %d diverges from serial run", workers, i)
			}
		}
	}
}

// TestValidation pins the config contract.
func TestValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"badN", func(c *Config) { c.N = 12 }},
		{"negLoad", func(c *Config) { c.Load = -0.1 }},
		{"bigLoad", func(c *Config) { c.Load = 1.5 }},
		{"zeroFlits", func(c *Config) { c.PacketFlits = 0 }},
		{"hugeFlits", func(c *Config) { c.PacketFlits = 1 << 13 }},
		{"zeroLanes", func(c *Config) { c.Lanes = 0 }},
		{"wideLanes", func(c *Config) { c.Lanes = 65 }},
		{"zeroDepth", func(c *Config) { c.LaneDepth = 0 }},
		{"zeroCycles", func(c *Config) { c.Cycles = 0 }},
		{"negWarmup", func(c *Config) { c.Warmup = -1 }},
		{"badPerm", func(c *Config) { c.Traffic = simulator.PermutationTraffic; c.Perm = []int{0, 1} }},
		{"dupPerm", func(c *Config) {
			c.Traffic = simulator.PermutationTraffic
			c.Perm = make([]int, c.N)
		}},
		{"badHotspot", func(c *Config) { c.Traffic = simulator.Hotspot; c.HotspotDest = c.N }},
		{"badHotFrac", func(c *Config) { c.Traffic = simulator.Hotspot; c.HotspotFrac = 2 }},
		{"smallTornado", func(c *Config) { c.Traffic = simulator.Tornado; c.N = 2 }},
		{"badFault", func(c *Config) { c.FaultRate = 1.1 }},
		{"negRepair", func(c *Config) { c.FaultRate = 0.1; c.RepairCycles = -1 }},
		{"negIntra", func(c *Config) { c.IntraWorkers = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mutate(&cfg)
			if err := Validate(cfg); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if _, err := Run(cfg); err == nil {
				t.Fatalf("%s accepted by Run", tc.name)
			}
		})
	}
	if err := Validate(baseConfig()); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// TestLaneCountHelpsUnderLoad is the in-package half of the saturation
// claim (E29 pins the full sweep): at saturating load, adding virtual
// lanes must not reduce delivered flit throughput.
func TestLaneCountHelpsUnderLoad(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 1
	cfg.Cycles = 1500
	cfg.Warmup = 150
	prev := -1.0
	for _, lanes := range []int{1, 2, 4} {
		cfg.Lanes = lanes
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.FlitThroughput < prev {
			t.Fatalf("flit throughput fell from %v to %v when lanes went to %d",
				prev, m.FlitThroughput, lanes)
		}
		prev = m.FlitThroughput
	}
}

// TestRunnerZeroAllocs: a warm Runner's RunSeed performs no heap
// allocation, on one shard and on the phase pool, with the fault
// injector running.
func TestRunnerZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r, err := NewRunner(Config{N: 64, Policy: simulator.RandomState, Load: 0.7,
			PacketFlits: 4, Lanes: 2, LaneDepth: 2, Cycles: 100, Warmup: 10,
			Traffic: simulator.Uniform, FaultRate: 0.002, RepairCycles: 5,
			IntraWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			r.RunSeed(seed)
		})
		r.Close()
		if allocs != 0 {
			t.Errorf("IntraWorkers=%d: %v allocs per RunSeed, want 0", workers, allocs)
		}
	}
}
