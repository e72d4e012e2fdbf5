package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// streamSample is the start of two clients' streams of workload w, with the
// plan they share and the simulator configuration.
func streamSample(t *testing.T, w string, seed int64) []any {
	t.Helper()
	pl, err := newPlan(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := []any{pl.hot, pl.faults}
	for k := 0; k < 2; k++ {
		s := newStream(pl, k)
		for i := 0; i < 300; i++ {
			o := s.next()
			o.items = slices.Clone(o.items)
			out = append(out, o)
		}
		out = append(out, warmup(pl, k, 2))
	}
	sp, err := newSimPlan(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, sp.pkt, sp.wh)
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamSample(t, w, 7), streamSample(t, w, 7), streamSample(t, w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w)
		}
	}
}

func TestCheckerRejectsInvalidAnswers(t *testing.T) {
	p := topology.MustParams(netSize)
	chk := newChecker(p, churnNet)
	it := item{net: churnNet, src: 5, dst: 900, scheme: routesvc.SchemeTSDT}
	tag := core.MustTag(p, it.dst)
	walk := tag.Follow(p, it.src)
	good := answer{ok: true, tag: tag.String(), path: walk.Switches()}
	if err := chk.verify(it, good, 0); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}

	tampered := good
	tampered.path = slices.Clone(good.path)
	tampered.path[3] = (tampered.path[3] + 1) % netSize
	if chk.verify(it, tampered, 0) == nil {
		t.Error("tampered path accepted")
	}

	// Epoch 1 faults the stage-4 link of the answer's own path.
	e := chk.expect(op{kind: opFault, net: churnNet, link: walk.Links[4]})
	chk.ack(churnNet, e)
	blocked := good
	blocked.epoch = e
	if chk.verify(it, blocked, e) == nil {
		t.Error("path through a fault of its reported epoch accepted")
	}
	if err := chk.verify(it, good, e); err != nil {
		t.Errorf("path valid at its reported epoch 0 rejected: %v", err)
	}

	if chk.verify(it, answer{code: codeUnroutable}, e) == nil {
		t.Error("false unroutable accepted")
	}

	// A repair that lands while the service computes leaves a tag computed
	// under the repaired map but stamped with the epoch before it.
	e = chk.expect(op{kind: opRepair, net: churnNet, link: walk.Links[4]})
	chk.ack(churnNet, e)
	if err := chk.verify(it, blocked, e); err != nil {
		t.Errorf("path clear under a map produced after its epoch rejected: %v", err)
	}
	// Fault every link out of the source's stage-0 switch: no path remains.
	for _, k := range []topology.LinkKind{topology.Minus, topology.Straight, topology.Plus} {
		e = chk.expect(op{kind: opFault, net: churnNet, link: topology.Link{Stage: 0, From: it.src, Kind: k}})
	}
	chk.ack(churnNet, e)
	if err := chk.verify(it, answer{code: codeUnroutable}, e); err != nil {
		t.Errorf("true unroutable rejected: %v", err)
	}

	ssdt := it
	ssdt.scheme = routesvc.SchemeSSDT
	flipped := tag.FlipStateBit(2)
	wrong := answer{ok: true, tag: flipped.String(), path: flipped.Follow(p, it.src).Switches()}
	if chk.verify(ssdt, wrong, e) == nil {
		t.Error("SSDT answer that differs from the reference tag accepted")
	}
	if chk.verify(ssdt, answer{code: codeUnroutable}, e) == nil {
		t.Error("unroutable SSDT answer accepted")
	}
}

func TestConservationCheck(t *testing.T) {
	if conserved(100, 90, 5, 90, 10) != nil {
		t.Error("balanced totals rejected")
	}
	for _, c := range [][5]int{
		{100, 101, 0, 101, 10}, // more delivered than injected
		{100, 50, 5, 50, 10},   // more in flight than the buffers hold
		{100, 90, 5, 89, 10},   // a delivery without a latency sample
	} {
		if conserved(c[0], c[1], c[2], c[3], c[4]) == nil {
			t.Errorf("unbalanced totals %v accepted", c)
		}
	}
}

func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, c := range []struct {
		manifest []def
		printed  []metric
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.printed {
			want = append(want, def{d.name, d.unit, d.better})
		}
		if !slices.Equal(c.manifest, want) {
			t.Errorf("BENCHMARK.json lists\n%v\nbut the benchmark prints\n%v", c.manifest, want)
		}
	}
}

func TestRefusesMoreClientsThanCores(t *testing.T) {
	var out bytes.Buffer
	args := []string{"--workload", hotSingles, "--clients", strconv.Itoa(runtime.NumCPU() + 1)}
	if code := run(args, &out, io.Discard); code == 0 || out.Len() > 0 {
		t.Errorf("run with more clients than cores: exit %d, output %q", code, out.String())
	}
}

// TestWorkloadsRun runs every workload briefly, untraced and traced, and
// checks that each answers correctly and prints exactly its metrics.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and simulators")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 3, 300*time.Millisecond, traced, runtime.NumCPU(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: printed %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
		}
	}
}
