package simulator

import (
	"fmt"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// sampleConfigs is a stratified sample over the dimensions that exercise
// distinct stepper paths: network size (including N=2, where the stage
// loop is empty), every policy (RandomState consumes
// routing draws, AdaptiveSSDT reads queue lengths, StaticC draws
// nothing), traffic patterns, both switch models, bursty modulation,
// static blockage, and the transient-fault model.
func sampleConfigs(t *testing.T) []Config {
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

// TestIntraWorkersInvariance pins that IntraWorkers is accepted and
// ignored: Run metrics are identical at 0, 1 and 4, because every run
// steps on one goroutine whatever the field says.
func TestIntraWorkersInvariance(t *testing.T) {
	for i, cfg := range sampleConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			seq := cfg
			seq.IntraWorkers = 0
			want, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4} {
				par := cfg
				par.IntraWorkers = p
				got, err := Run(par)
				if err != nil {
					t.Fatal(err)
				}
				if !metricsEqual(want, got) {
					t.Errorf("IntraWorkers=%d diverges from IntraWorkers=0:\n got %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

// TestIntraWorkersValidation pins the IntraWorkers config contract.
func TestIntraWorkersValidation(t *testing.T) {
	cfg := Config{N: 8, Load: 0.5, QueueCap: 4, Cycles: 10, IntraWorkers: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative IntraWorkers accepted")
	}
	cfg.IntraWorkers = 64 // above N=8: accepted, and ignored
	if _, err := Run(cfg); err != nil {
		t.Fatalf("IntraWorkers above N rejected: %v", err)
	}
}

// TestRunnerZeroAllocs: a warm Runner's RunSeed performs no heap
// allocation, with the fault injector running.
func TestRunnerZeroAllocs(t *testing.T) {
	r, err := NewRunner(Config{N: 64, Policy: RandomState, Load: 0.7, QueueCap: 4,
		Cycles: 100, Warmup: 10, Traffic: Uniform,
		FaultRate: 0.002, RepairCycles: 5})
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
