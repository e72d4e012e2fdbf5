package wormhole

import (
	"fmt"
	"runtime"

	"iadm/internal/fanout"
)

// RunMany executes every config as an independent run, fanning out across
// a worker pool. Each run's randomness is a pure function of cfg.Seed, so
// results are bit-identical to calling Run on each config serially, in
// the same order as cfgs, regardless of worker count or scheduling.
func RunMany(cfgs []Config) ([]Metrics, error) {
	return RunManyWorkers(cfgs, 0)
}

// configSummary renders the handful of Config fields that identify a run
// in error messages, without dumping unbounded fields like Perm.
func configSummary(cfg Config) string {
	s := fmt.Sprintf("N=%d policy=%v load=%v flits=%d lanes=%d depth=%d cycles=%d warmup=%d seed=%d traffic=%v",
		cfg.N, cfg.Policy, cfg.Load, cfg.PacketFlits, cfg.Lanes, cfg.LaneDepth,
		cfg.Cycles, cfg.Warmup, cfg.Seed, cfg.Traffic)
	if cfg.FaultRate > 0 {
		s += fmt.Sprintf(" faultRate=%v repair=%d", cfg.FaultRate, cfg.RepairCycles)
	}
	if cfg.IntraWorkers != 0 {
		s += fmt.Sprintf(" intraWorkers=%d", cfg.IntraWorkers)
	}
	return s
}

// maxIntraWorkers is the largest effective per-run shard count across the
// batch, the divisor of the nested-parallelism budget.
func maxIntraWorkers(cfgs []Config) int {
	max := 1
	for i := range cfgs {
		if cfgs[i].N < 1 {
			continue // invalid; Run will report it
		}
		if p := effectiveIntra(cfgs[i]); p > max {
			max = p
		}
	}
	return max
}

// RunManyWorkers is RunMany with an explicit worker bound; workers <= 0
// means automatic sizing: GOMAXPROCS goroutines divided by the largest
// per-run IntraWorkers in the batch, so the nested product runs x shards
// stays within GOMAXPROCS.
func RunManyWorkers(cfgs []Config, workers int) ([]Metrics, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / maxIntraWorkers(cfgs)
		if workers < 1 {
			workers = 1
		}
	}
	return fanout.Map(len(cfgs), workers, func(i int) (Metrics, error) {
		m, err := Run(cfgs[i])
		if err != nil {
			return m, fmt.Errorf("wormhole: run %d (%s): %w", i, configSummary(cfgs[i]), err)
		}
		return m, nil
	})
}

// Sweep builds and runs `points` configs derived from base: point i
// copies base, decorrelates the seed to base.Seed + i, then applies
// vary(i, &cfg) if non-nil. Results come back in point order.
func Sweep(base Config, points, workers int, vary func(i int, cfg *Config)) ([]Metrics, error) {
	if points < 0 {
		return nil, fmt.Errorf("wormhole: sweep points %d < 0", points)
	}
	cfgs := make([]Config, points)
	for i := range cfgs {
		cfg := base
		cfg.Seed = base.Seed + int64(i)
		if vary != nil {
			vary(i, &cfg)
		}
		cfgs[i] = cfg
	}
	return RunManyWorkers(cfgs, workers)
}
