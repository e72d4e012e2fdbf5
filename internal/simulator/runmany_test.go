package simulator

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// metricsEqual compares two Metrics for bit-identical results, including
// the full latency and utilization distributions.
func metricsEqual(a, b Metrics) bool {
	if a.Injected != b.Injected || a.Delivered != b.Delivered ||
		a.Dropped != b.Dropped || a.Refused != b.Refused ||
		a.MaxQueue != b.MaxQueue || a.MeanQueue != b.MeanQueue ||
		a.Throughput != b.Throughput {
		return false
	}
	return reflect.DeepEqual(a.Latency, b.Latency) &&
		reflect.DeepEqual(a.UtilStraight, b.UtilStraight) &&
		reflect.DeepEqual(a.UtilNonstraight, b.UtilNonstraight)
}

// sweepConfigs is a mixed batch exercising several traffic patterns,
// policies and the fault model.
func sweepConfigs() []Config {
	base := Config{N: 16, Load: 0.5, QueueCap: 4, Cycles: 300, Warmup: 30, Traffic: Uniform}
	var cfgs []Config
	for i, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
		cfg := base
		cfg.Policy = pol
		cfg.Seed = int64(100 + i)
		cfgs = append(cfgs, cfg)
	}
	hot := base
	hot.Policy = AdaptiveSSDT
	hot.Traffic = Hotspot
	hot.HotspotDest = 3
	hot.HotspotFrac = 0.2
	hot.Seed = 7
	cfgs = append(cfgs, hot)
	flt := base
	flt.Policy = AdaptiveSSDT
	flt.FaultRate = 0.001
	flt.RepairCycles = 20
	flt.Switches = SingleInput
	flt.Seed = 8
	cfgs = append(cfgs, flt)
	return cfgs
}

// TestRunManyMatchesRun checks the central RunMany contract: fanning a
// batch out across workers yields bit-identical Metrics, in order, to
// running each config serially — for any worker count.
func TestRunManyMatchesRun(t *testing.T) {
	cfgs := sweepConfigs()
	want := make([]Metrics, len(cfgs))
	for i, cfg := range cfgs {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		want[i] = m
	}
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got, err := RunManyWorkers(cfgs, workers)
		if err != nil {
			t.Fatalf("RunManyWorkers(workers=%d): %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if !metricsEqual(got[i], want[i]) {
				t.Errorf("workers=%d run %d: metrics differ from serial Run\n got: %+v\nwant: %+v",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunSameSeedDeterministic checks that a config re-run with the same
// seed reproduces identical metrics, and that a Runner reused across
// seeds matches the one-shot Run path.
func TestRunSameSeedDeterministic(t *testing.T) {
	cfg := Config{
		N: 32, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4,
		Cycles: 500, Warmup: 50, Seed: 42, Traffic: Uniform,
		Switches: SingleInput,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !metricsEqual(a, b) {
		t.Fatalf("same seed, different metrics:\n a: %+v\n b: %+v", a, b)
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{42, 7, 42} {
		cfg.Seed = seed
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := r.RunSeed(seed)
		if !metricsEqual(got, want) {
			t.Fatalf("Runner seed %d: metrics differ from one-shot Run", seed)
		}
	}
}

// TestRunManyError checks that the first failing config (by index, not by
// completion order) is the one reported, and that no results leak out.
func TestRunManyError(t *testing.T) {
	ok := Config{N: 8, Policy: StaticC, Load: 0.5, QueueCap: 2, Cycles: 50, Seed: 1}
	bad := ok
	bad.Load = 2 // invalid
	ms, err := RunManyWorkers([]Config{ok, bad, {N: 7}, ok}, 4)
	if err == nil {
		t.Fatal("want error from invalid config, got nil")
	}
	if ms != nil {
		t.Fatalf("want nil results on error, got %v", ms)
	}
	if want := "run 1 ("; !contains(err.Error(), want) {
		t.Errorf("error %q does not name the first failing index (%q)", err, want)
	}
	if want := "load=2"; !contains(err.Error(), want) {
		t.Errorf("error %q does not summarize the failing config (%q)", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSweep checks seed decorrelation and the vary hook.
func TestSweep(t *testing.T) {
	base := Config{N: 8, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4, Cycles: 200, Warmup: 20, Seed: 100}
	ms, err := Sweep(base, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d results, want 4", len(ms))
	}
	// Each point must match a serial run at seed base.Seed+i.
	for i := range ms {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(ms[i], want) {
			t.Errorf("sweep point %d differs from serial run at seed %d", i, cfg.Seed)
		}
	}
	// vary can override any field, including the load.
	loads := []float64{0.2, 0.4, 0.6}
	ms, err = Sweep(base, len(loads), 0, func(i int, cfg *Config) { cfg.Load = loads[i] })
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i, m := range ms {
		if m.Injected <= prev {
			t.Errorf("point %d: injected %d not increasing with load", i, m.Injected)
		}
		prev = m.Injected
	}

	if _, err := Sweep(base, -1, 0, nil); err == nil {
		t.Error("negative points: want error")
	}
	if ms, err := Sweep(base, 0, 0, nil); err != nil || len(ms) != 0 {
		t.Errorf("zero points: got (%v, %v), want empty", ms, err)
	}
}

// TestRunManyConcurrentStress drives many workers over many configs; its
// real value is under `go test -race`, where it proves the worker pool
// shares no simulation state across goroutines.
func TestRunManyConcurrentStress(t *testing.T) {
	cfgs := make([]Config, 32)
	for i := range cfgs {
		cfgs[i] = Config{
			N: 8, Policy: Policy(i % 3), Load: 0.6, QueueCap: 3,
			Cycles: 100, Warmup: 10, Seed: int64(i), Traffic: TrafficKind(i % 2),
			HotspotDest: i % 8, HotspotFrac: 0.2,
		}
	}
	got, err := RunManyWorkers(cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(got[i], want) {
			t.Errorf("run %d: parallel result differs from serial", i)
		}
	}
}

// TestValidation covers the config checks, including the ones added with
// the allocation-free core (negative warmup, negative repair cycles).
func TestValidation(t *testing.T) {
	ok := Config{N: 8, Load: 0.5, QueueCap: 2, Cycles: 10}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative load", func(c *Config) { c.Load = -0.1 }},
		{"load above one", func(c *Config) { c.Load = 1.5 }},
		{"zero queue cap", func(c *Config) { c.QueueCap = 0 }},
		{"zero cycles", func(c *Config) { c.Cycles = 0 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"cycle counter overflow", func(c *Config) { c.Cycles = 1 << 31; c.Warmup = 1 << 31 }},
		{"bad permutation", func(c *Config) { c.Traffic = PermutationTraffic; c.Perm = []int{0, 1} }},
		{"hotspot dest out of range", func(c *Config) { c.Traffic = Hotspot; c.HotspotDest = 8 }},
		{"negative fault rate", func(c *Config) { c.FaultRate = -0.5 }},
		{"fault rate above one", func(c *Config) { c.FaultRate = 1.5 }},
		{"negative repair cycles", func(c *Config) { c.FaultRate = 0.1; c.RepairCycles = -1 }},
		{"bad N", func(c *Config) { c.N = 6 }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: want error, got nil (cfg %+v)", tc.name, cfg)
		}
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// RepairCycles may be anything while faults are disabled.
	cfg := ok
	cfg.RepairCycles = -5
	if _, err := Run(cfg); err != nil {
		t.Errorf("negative repair cycles without faults rejected: %v", err)
	}
}

// TestRunManyEmpty checks the degenerate batch.
func TestRunManyEmpty(t *testing.T) {
	ms, err := RunMany(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("got %d results, want 0", len(ms))
	}
}

// ExampleSweep shows the replica-sweep shape RunMany was built for.
func ExampleSweep() {
	base := Config{N: 8, Policy: AdaptiveSSDT, Load: 0.5, QueueCap: 4, Cycles: 400, Warmup: 40, Seed: 1}
	ms, err := Sweep(base, 3, 0, nil)
	if err != nil {
		panic(err)
	}
	for i, m := range ms {
		fmt.Printf("replica %d: delivered=%d\n", i, m.Delivered)
	}
	// Output:
	// replica 0: delivered=1590
	// replica 1: delivered=1641
	// replica 2: delivered=1620
}

// reuseConfigs is a batch that interleaves config shapes, so a worker's
// kept engine is reusable for some runs and not for others: two blockage
// sets (one also as an equal copy under another pointer), a permutation,
// a QueueCap change and an IntraWorkers change (ignored by the engine,
// but part of the shape).
func reuseConfigs() []Config {
	p := topology.MustParams(16)
	blkA, blkB, blkA2 := blockage.NewSet(p), blockage.NewSet(p), blockage.NewSet(p)
	blkA.RandomNonstraight(rand.New(rand.NewSource(1)), 4)
	blkB.RandomNonstraight(rand.New(rand.NewSource(2)), 4)
	for _, l := range blkA.Links() {
		blkA2.Block(l)
	}
	a := Config{N: 16, Policy: AdaptiveSSDT, Load: 0.7, QueueCap: 4, Cycles: 80, Warmup: 8, Blocked: blkA}
	b := a
	b.Blocked = blkB
	a2 := a
	a2.Blocked = blkA2
	perm := a
	perm.Traffic, perm.Perm = PermutationTraffic, rand.New(rand.NewSource(3)).Perm(16)
	qcap := a
	qcap.QueueCap = 2
	intra := b
	intra.IntraWorkers = 3
	shapes := []Config{a, b, a, a2, b, perm, perm, a, qcap, qcap, a, intra, intra, b, a}
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
	p := topology.MustParams(8)
	blk := blockage.NewSet(p)
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = Config{N: 8, Policy: AdaptiveSSDT, Load: 0.6, QueueCap: 4, Cycles: 100, Seed: int64(i), Blocked: blk}
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
