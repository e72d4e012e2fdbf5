package simulator

import (
	"fmt"
	"runtime"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// shardSampleConfigs is a stratified sample over the dimensions that
// exercise distinct stepper paths: network size (including N=2, where the
// stage loop is empty, and sizes that don't divide evenly into the worker
// counts under test), every policy (RandomState consumes
// routing draws, AdaptiveSSDT reads queue lengths, StaticC draws
// nothing), traffic patterns, both switch models, bursty modulation,
// static blockage, and the transient-fault model.
func shardSampleConfigs(t *testing.T) []Config {
	t.Helper()
	base := Config{N: 16, Load: 0.6, QueueCap: 4, Cycles: 200, Warmup: 20, Traffic: Uniform}

	var cfgs []Config
	add := func(mut func(*Config)) {
		cfg := base
		cfg.Seed = int64(1000 + len(cfgs))
		mut(&cfg)
		cfgs = append(cfgs, cfg)
	}

	for _, n := range []int{2, 8, 16, 64} {
		n := n
		for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
			pol := pol
			add(func(c *Config) { c.N = n; c.Policy = pol })
		}
	}
	add(func(c *Config) { c.Switches = SingleInput; c.Policy = AdaptiveSSDT })
	add(func(c *Config) { c.Switches = SingleInput; c.Policy = RandomState; c.N = 8 })
	add(func(c *Config) { c.Traffic = Hotspot; c.HotspotDest = 3; c.HotspotFrac = 0.3 })
	add(func(c *Config) { c.Traffic = BitComplementTraffic; c.Policy = RandomState })
	add(func(c *Config) { c.Traffic = Tornado; c.Policy = AdaptiveSSDT })
	add(func(c *Config) {
		c.Traffic = PermutationTraffic
		perm := make([]int, c.N)
		for i := range perm {
			perm[i] = (i + 5) % c.N
		}
		c.Perm = perm
	})
	add(func(c *Config) { c.Bursty = true; c.BurstOn = 7; c.BurstOff = 3; c.Policy = RandomState })
	add(func(c *Config) { c.FaultRate = 0.002; c.RepairCycles = 12; c.Policy = AdaptiveSSDT })
	add(func(c *Config) {
		p, err := topology.NewParams(c.N)
		if err != nil {
			t.Fatal(err)
		}
		set := blockage.NewSet(p)
		set.Block(topology.Link{Stage: 1, From: 4, Kind: topology.Plus})
		set.Block(topology.Link{Stage: 2, From: 9, Kind: topology.Straight})
		c.Blocked = set
		c.Policy = RandomState
	})
	add(func(c *Config) { c.Load = 1.0; c.QueueCap = 2; c.Policy = AdaptiveSSDT }) // saturated: refusals + stalls
	return cfgs
}

// TestIntraWorkersInvariance pins that the packet engine ignores
// IntraWorkers: Run metrics are bit-identical for every value, because
// every run steps on one goroutine whatever the field says (3 does not
// divide most N evenly; 8 exceeds N for the N=2 configs, values the
// wormhole engine shards or clamps).
func TestIntraWorkersInvariance(t *testing.T) {
	for i, cfg := range shardSampleConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			seq := cfg
			seq.IntraWorkers = 0
			want, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 3, 8} {
				par := cfg
				par.IntraWorkers = p
				got, err := Run(par)
				if err != nil {
					t.Fatal(err)
				}
				if !metricsEqual(want, got) {
					t.Errorf("IntraWorkers=%d diverges from sequential run:\n got %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

// TestRunnerShardedReuse checks that a Runner configured with IntraWorkers
// 4, which the packet engine ignores, rewinds its buffers between runs:
// interleaved seeds reproduce their first-run metrics exactly, and Close
// is idempotent.
func TestRunnerShardedReuse(t *testing.T) {
	cfg := Config{N: 32, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4,
		Cycles: 150, Warmup: 15, Traffic: Uniform, IntraWorkers: 4}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	first := make(map[int64]Metrics)
	for _, seed := range []int64{1, 2, 3} {
		first[seed] = r.RunSeed(seed)
	}
	for _, seed := range []int64{3, 1, 2, 1} {
		if got := r.RunSeed(seed); !metricsEqual(got, first[seed]) {
			t.Fatalf("seed %d not reproducible on reuse:\n got %+v\nwant %+v", seed, got, first[seed])
		}
	}
	r.Close() // second Close must be a no-op
}

// TestIntraWorkersValidation pins the IntraWorkers config contract.
func TestIntraWorkersValidation(t *testing.T) {
	cfg := Config{N: 8, Load: 0.5, QueueCap: 4, Cycles: 10, IntraWorkers: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative IntraWorkers accepted")
	}
	cfg.IntraWorkers = 64 // above N=8: accepted, and ignored by the packet engine
	if _, err := Run(cfg); err != nil {
		t.Fatalf("IntraWorkers above N rejected: %v", err)
	}
}

// TestRunnerZeroAllocs: a warm Runner's RunSeed performs no heap
// allocation at every IntraWorkers value, with the fault injector
// running.
func TestRunnerZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r, err := NewRunner(Config{N: 64, Policy: RandomState, Load: 0.7, QueueCap: 4,
			Cycles: 100, Warmup: 10, Traffic: Uniform,
			FaultRate: 0.002, RepairCycles: 5, IntraWorkers: workers})
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

// TestRunnerStartsNoGoroutine: the packet engine builds no phase pool, so
// a Runner asking for four shards starts no goroutine at construction,
// during a run or at Close. The count may fall below the baseline while
// an earlier test's workers finish exiting, so only a rise fails.
func TestRunnerStartsNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%s: %d goroutines, %d before NewRunner", when, n, baseline)
		}
	}
	r, err := NewRunner(Config{N: 64, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4,
		Cycles: 50, Warmup: 5, Traffic: Uniform, IntraWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check("after NewRunner")
	r.RunSeed(1)
	check("after RunSeed")
	r.Close()
	check("after Close")
}
