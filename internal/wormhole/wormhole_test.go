package wormhole

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
// every config.
func TestInvariantsOverSampleConfigs(t *testing.T) {
	old := invariantsEnabled
	invariantsEnabled = true
	defer func() { invariantsEnabled = old }()
	for i, cfg := range sampleConfigs(t) {
		if _, err := Run(cfg); err != nil {
			t.Fatalf("cfg %d: %v", i, err)
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

// TestRunnerReuse checks that a Runner's buffers rewind exactly between
// runs: interleaved seeds reproduce their first-run metrics, with
// IntraWorkers (ignored) at 0 and 4.
func TestRunnerReuse(t *testing.T) {
	for _, intra := range []int{0, 4} {
		t.Run(fmt.Sprintf("intra%d", intra), func(t *testing.T) {
			cfg := baseConfig()
			cfg.IntraWorkers = intra
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
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
// allocation, with the fault injector running.
func TestRunnerZeroAllocs(t *testing.T) {
	r, err := NewRunner(Config{N: 64, Policy: simulator.RandomState, Load: 0.7,
		PacketFlits: 4, Lanes: 2, LaneDepth: 2, Cycles: 100, Warmup: 10,
		Traffic: simulator.Uniform, FaultRate: 0.002, RepairCycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		r.RunSeed(seed)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per RunSeed, want 0", allocs)
	}
}

// TestRepairOutlastingRunStaysFailed: a fault whose repair time reaches
// past the end of the run keeps its link failed to the end, however far
// past. A repair cycle that overflowed the per-link cycle counter used to
// wrap negative and bring the link back at once.
func TestRepairOutlastingRunStaysFailed(t *testing.T) {
	cfg := baseConfig()
	cfg.Cycles, cfg.Warmup, cfg.Seed = 300, 20, 5
	cfg.FaultRate = 0.01
	cfg.RepairCycles = cfg.Warmup + cfg.Cycles
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Dropped == 0 {
		t.Fatal("no drops: the config does not exercise lasting faults")
	}
	for _, repair := range []int{cfg.RepairCycles + 1, math.MaxInt32, math.MaxInt32 + 7} {
		cfg.RepairCycles = repair
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(got, want) {
			t.Errorf("RepairCycles %d: dropped %d delivered %d, want %d and %d (as for a repair at the run's end)",
				repair, got.Dropped, got.Delivered, want.Dropped, want.Delivered)
		}
	}
}

// reuseConfigs interleaves config shapes, so a batch worker's kept engine
// is reusable for some runs and not for others: two blockage sets (one
// also as an equal copy under another pointer), a permutation, a lane
// change and an IntraWorkers change (ignored by the engine, but part of
// the shape).
func reuseConfigs() []Config {
	p := topology.MustParams(16)
	blkA, blkB, blkA2 := blockage.NewSet(p), blockage.NewSet(p), blockage.NewSet(p)
	blkA.RandomNonstraight(rand.New(rand.NewSource(1)), 4)
	blkB.RandomNonstraight(rand.New(rand.NewSource(2)), 4)
	for _, l := range blkA.Links() {
		blkA2.Block(l)
	}
	a := baseConfig()
	a.Load, a.Cycles, a.Warmup, a.Blocked = 0.6, 80, 8, blkA
	b := a
	b.Blocked = blkB
	a2 := a
	a2.Blocked = blkA2
	perm := a
	perm.Traffic, perm.Perm = simulator.PermutationTraffic, rand.New(rand.NewSource(3)).Perm(16)
	lanes := a
	lanes.Lanes = 3
	intra := b
	intra.IntraWorkers = 3
	shapes := []Config{a, b, a, a2, b, perm, perm, a, lanes, lanes, a, intra, intra, b, a}
	for i := range shapes {
		shapes[i].Seed = int64(200 + i)
	}
	return shapes
}

// TestRunManyEngineReuse: a batch whose workers reuse engines across
// configs that differ only in Seed returns what serial Run returns, for
// every worker count; its results alias neither one another nor a later
// batch's; and no goroutine of the batch outlives it.
func TestRunManyEngineReuse(t *testing.T) {
	cfgs := reuseConfigs()
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		want[i] = m
	}
	baseline := runtime.NumGoroutine()
	var first []Metrics
	for _, workers := range []int{1, 2, 3} {
		got, err := RunManyWorkers(cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if !metricsEqual(got[i], want[i]) {
				t.Errorf("workers=%d run %d: metrics differ from serial Run", workers, i)
			}
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("workers=%d: %d goroutines after the batch, %d before", workers, n, baseline)
		}
		if first == nil {
			first = got
		}
	}
	for i := range want {
		if !metricsEqual(first[i], want[i]) {
			t.Errorf("run %d of the first batch changed under later batches", i)
		}
	}
}

// TestRunManyResnapshotsBlocked: a blockage set mutated between two
// batches is read again by the second.
func TestRunManyResnapshotsBlocked(t *testing.T) {
	blk := blockage.NewSet(topology.MustParams(16))
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = baseConfig()
		cfgs[i].Seed, cfgs[i].Cycles, cfgs[i].Blocked = int64(i), 100, blk
	}
	before, err := RunManyWorkers(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	blk.Block(topology.Link{Stage: 1, From: 3, Kind: topology.Straight})
	after, err := RunManyWorkers(cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(after[i], want) {
			t.Errorf("run %d: batch after the mutation differs from Run", i)
		}
		if before[i].Dropped != 0 || after[i].Dropped == 0 {
			t.Errorf("run %d: dropped %d before blocking a straight link, %d after", i, before[i].Dropped, after[i].Dropped)
		}
	}
}
