package wormhole

import (
	"fmt"
	"testing"
)

// TestIntraWorkersInvariance is the acceptance gate for the sharded
// wormhole engine: for every sample config, IntraWorkers ∈ {1, 2, 4, 8}
// must reproduce the sequential run's metrics bit-identically — full
// latency and utilization distributions included. Run under -race (make
// race does, with invariants armed) this also exercises the ownership
// claims of the sharding argument in internal/simulator/model.go.
func TestIntraWorkersInvariance(t *testing.T) {
	for i, cfg := range sampleConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", i), func(t *testing.T) {
			seq := cfg
			seq.IntraWorkers = 0
			want, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 4, 8} {
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

// TestShardCountOddSplits drives shard counts that do not divide N
// evenly (including one shard per switch) against the sequential engine.
func TestShardCountOddSplits(t *testing.T) {
	cfg := baseConfig()
	cfg.Load = 0.8
	seq := cfg
	want, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{3, 5, 7, 16, 100} {
		par := cfg
		par.IntraWorkers = p // clamped to N=16 when larger
		got, err := Run(par)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(want, got) {
			t.Errorf("IntraWorkers=%d diverges from sequential run", p)
		}
	}
}
