package wormhole

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
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

var updateGrid = flag.Bool("update", false, "rewrite testdata/golden_grid.txt")

// goldenGridConfigs is the pinned grid: every policy x traffic kind x
// fault mode x switch model, in two lane/flit shapes, each run once with
// its own seed.
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
	shapes := []struct{ flits, lanes, depth int }{{4, 2, 2}, {1, 3, 1}}
	for _, sh := range shapes {
		for _, pol := range []simulator.Policy{simulator.StaticC, simulator.RandomState, simulator.AdaptiveSSDT} {
			for _, tr := range []simulator.TrafficKind{simulator.Uniform, simulator.Hotspot,
				simulator.PermutationTraffic, simulator.BitComplementTraffic, simulator.Tornado} {
				for _, fault := range []string{"none", "static", "transient"} {
					for _, sw := range []simulator.SwitchModel{simulator.Crossbar, simulator.SingleInput} {
						cfg := Config{N: N, Policy: pol, Load: 0.4,
							PacketFlits: sh.flits, Lanes: sh.lanes, LaneDepth: sh.depth,
							Cycles: 80, Warmup: 10, Traffic: tr,
							HotspotDest: 3, HotspotFrac: 0.3, Perm: perm, Switches: sw}
						switch fault {
						case "static":
							cfg.Blocked = blk
						case "transient":
							cfg.FaultRate, cfg.RepairCycles = 0.004, 15
						}
						cfg.Seed = int64(11 + len(cfgs))
						keys = append(keys, fmt.Sprintf("f%dv%dd%d/%v/%v/%s/%v",
							sh.flits, sh.lanes, sh.depth, pol, tr, fault, sw))
						cfgs = append(cfgs, cfg)
					}
				}
			}
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
	return fmt.Sprintf("%s inj=%d del=%d drop=%d ref=%d finj=%d fdel=%d fdrop=%d maxd=%d occ=%016x thr=%016x fthr=%016x lat=%s us=%s un=%s",
		key, m.Injected, m.Delivered, m.Dropped, m.Refused,
		m.FlitsInjected, m.FlitsDelivered, m.FlitsDropped, m.MaxLaneDepth,
		math.Float64bits(m.MeanLaneOcc), math.Float64bits(m.Throughput), math.Float64bits(m.FlitThroughput),
		streamBits(m.Latency), streamBits(m.UtilStraight), streamBits(m.UtilNonstraight))
}

// TestGoldenGrid pins the engine's output bit for bit across commits,
// faulty configs included (the refwh oracle compares those only
// statistically), and checks that the last config, run twice through one
// Runner, repeats its line. Regenerate deliberately with
//
//	go test ./internal/wormhole -run GoldenGrid -update
func TestGoldenGrid(t *testing.T) {
	keys, cfgs := goldenGridConfigs(t)
	var got bytes.Buffer
	var line string
	for i, cfg := range cfgs {
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", keys[i], err)
		}
		line = goldenLine(keys[i], m)
		fmt.Fprintln(&got, line)
	}
	last := len(cfgs) - 1
	r, err := NewRunner(cfgs[last])
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if again := goldenLine(keys[last], r.Run()); again != line {
			t.Fatalf("run %d through one Runner:\n got %s\nwant %s", k+1, again, line)
		}
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
