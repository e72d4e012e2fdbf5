package simulator

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

var updateGrid = flag.Bool("update", false, "rewrite testdata/golden_grid.txt")

// goldenFaults are the fault modes of the golden grid.
var goldenFaults = []string{"none", "static", "transient"}

// goldenGridConfigs is the pinned grid: every policy x traffic kind x
// fault mode x switch model, plus bursty sources under every policy and
// fault mode. Each config is run twice, keyed IntraWorkers 1 and 3: the
// engine ignores the field, so each pair of lines must agree, and the keys
// keep the recorded file.
func goldenGridConfigs(t *testing.T) (keys []string, cfgs []Config) {
	t.Helper()
	const N = 16
	p, err := topology.NewParams(N)
	if err != nil {
		t.Fatal(err)
	}
	blk := blockage.NewSet(p)
	blk.Block(topology.Link{Stage: 0, From: 5, Kind: topology.Minus})
	blk.Block(topology.Link{Stage: 1, From: 4, Kind: topology.Plus})
	blk.Block(topology.Link{Stage: 2, From: 9, Kind: topology.Straight})
	blk.Block(topology.Link{Stage: 3, From: 12, Kind: topology.Plus})
	perm := make([]int, N)
	for i := range perm {
		perm[i] = (i*5 + 3) % N
	}
	withFault := func(cfg Config, fault string) Config {
		switch fault {
		case "static":
			cfg.Blocked = blk
		case "transient":
			cfg.FaultRate, cfg.RepairCycles = 0.004, 15
		}
		return cfg
	}
	add := func(key string, cfg Config) {
		for _, intra := range []int{1, 3} {
			c := cfg
			c.IntraWorkers = intra
			c.Seed = int64(7 + len(cfgs)/2)
			keys = append(keys, fmt.Sprintf("%s/intra=%d", key, intra))
			cfgs = append(cfgs, c)
		}
	}
	base := Config{N: N, Load: 0.6, QueueCap: 3, Cycles: 80, Warmup: 10,
		HotspotDest: 3, HotspotFrac: 0.3, Perm: perm}
	for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
		for _, tr := range []TrafficKind{Uniform, Hotspot, PermutationTraffic, BitComplementTraffic, Tornado} {
			for _, fault := range goldenFaults {
				for _, sw := range []SwitchModel{Crossbar, SingleInput} {
					cfg := base
					cfg.Policy, cfg.Traffic, cfg.Switches = pol, tr, sw
					add(fmt.Sprintf("%v/%v/%s/%v", pol, tr, fault, sw), withFault(cfg, fault))
				}
			}
		}
		for _, fault := range goldenFaults {
			cfg := base
			cfg.Policy, cfg.Bursty, cfg.BurstOn, cfg.BurstOff = pol, true, 6, 4
			add(fmt.Sprintf("%v/bursty/%s", pol, fault), withFault(cfg, fault))
		}
	}
	return keys, cfgs
}

// streamBits renders a stream's sample count, mean and max, the floats as
// their exact bits.
func streamBits(s stats.Stream) string {
	return fmt.Sprintf("%d/%016x/%016x", s.N(), math.Float64bits(s.Mean()), math.Float64bits(s.Max()))
}

func goldenLine(key string, m Metrics) string {
	return fmt.Sprintf("%s inj=%d del=%d drop=%d ref=%d maxq=%d meanq=%016x thr=%016x lat=%s us=%s un=%s",
		key, m.Injected, m.Delivered, m.Dropped, m.Refused, m.MaxQueue,
		math.Float64bits(m.MeanQueue), math.Float64bits(m.Throughput),
		streamBits(m.Latency), streamBits(m.UtilStraight), streamBits(m.UtilNonstraight))
}

// TestGoldenGrid pins the engine's output bit for bit across commits,
// faulty configs included (the refsim oracle compares those only
// statistically). Regenerate deliberately with
//
//	go test ./internal/simulator -run GoldenGrid -update
func TestGoldenGrid(t *testing.T) {
	keys, cfgs := goldenGridConfigs(t)
	var got bytes.Buffer
	for i, cfg := range cfgs {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		fmt.Fprintln(&got, goldenLine(keys[i], m))
	}
	path := filepath.Join("testdata", "golden_grid.txt")
	if *updateGrid {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("grid has %d lines, golden file %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("drift:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
