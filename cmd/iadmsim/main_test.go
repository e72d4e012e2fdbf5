package main

import (
	"os"
	"strings"
	"testing"

	"iadm/internal/topology"
)

func runOK(t *testing.T, N int, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, defaultOptions(N), args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func runErr(t *testing.T, N int, args ...string) {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, defaultOptions(N), args); err == nil {
		t.Fatalf("run(%v) unexpectedly succeeded:\n%s", args, sb.String())
	}
}

func TestDraw(t *testing.T) {
	out := runOK(t, 8, "draw")
	if !strings.Contains(out, "IADM network, N=8") {
		t.Errorf("draw output missing header:\n%s", out)
	}
}

func TestICubeCommand(t *testing.T) {
	out := runOK(t, 8, "icube")
	if !strings.Contains(out, "ICube network, N=8") {
		t.Errorf("icube output missing header:\n%s", out)
	}
}

func TestPathsCommand(t *testing.T) {
	out := runOK(t, 8, "paths", "1", "0")
	if !strings.Contains(out, "4 link-paths") {
		t.Errorf("paths output wrong:\n%s", out)
	}
}

func TestRouteCommand(t *testing.T) {
	out := runOK(t, 8, "route", "1", "0")
	if !strings.Contains(out, "TSDT tag 000000 from source 1") {
		t.Errorf("route output wrong:\n%s", out)
	}
}

func TestRerouteCommand(t *testing.T) {
	out := runOK(t, 8, "reroute", "1", "0", "0:1:-", "1:2:-")
	if !strings.Contains(out, "rerouting tag: 000110") {
		t.Errorf("reroute output wrong:\n%s", out)
	}
	if !strings.Contains(out, "4∈S_2") {
		t.Errorf("reroute path wrong:\n%s", out)
	}
}

func TestRerouteNoPath(t *testing.T) {
	// s = d = 5, straight blocked: no path.
	runErr(t, 8, "reroute", "5", "5", "1:5:0")
}

func TestSubgraphCommand(t *testing.T) {
	out := runOK(t, 8, "subgraph", "1")
	if !strings.Contains(out, "relabeling j -> j+1") {
		t.Errorf("subgraph output wrong:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	runErr(t, 7, "draw")                        // bad N
	runErr(t, 8)                                // missing command
	runErr(t, 8, "bogus")                       // unknown command
	runErr(t, 8, "paths", "1")                  // missing dest
	runErr(t, 8, "paths", "9", "0")             // bad source
	runErr(t, 8, "paths", "0", "x")             // bad dest
	runErr(t, 8, "reroute", "1", "0", "weird")  // bad link spec
	runErr(t, 8, "reroute", "1", "0", "9:0:-")  // bad stage
	runErr(t, 8, "reroute", "1", "0", "0:99:-") // bad switch
	runErr(t, 8, "reroute", "1", "0", "0:0:x")  // bad kind
	runErr(t, 8, "reroute", "1")                // short args
	runErr(t, 8, "subgraph")                    // missing x
	runErr(t, 8, "subgraph", "9")               // out of range
	runErr(t, 8, "subgraph", "q")               // not a number
}

func TestParseLinkKinds(t *testing.T) {
	p := topology.MustParams(8)
	for spec, kind := range map[string]topology.LinkKind{
		"1:2:-": topology.Minus,
		"1:2:0": topology.Straight,
		"1:2:+": topology.Plus,
	} {
		l, err := topology.ParseLink(p, spec)
		if err != nil {
			t.Fatalf("ParseLink(%q): %v", spec, err)
		}
		if l.Kind != kind || l.Stage != 1 || l.From != 2 {
			t.Errorf("ParseLink(%q) = %v", spec, l)
		}
	}
}

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "scen-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(body); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return f.Name()
}

func TestScenarioCommand(t *testing.T) {
	path := writeScenario(t, "n 8\nlink 0 1 -\nlink 1 2 -\n")
	out := runOK(t, 8, "scenario", path, "1", "0")
	if !strings.Contains(out, "rerouting tag: 000110") {
		t.Errorf("scenario output wrong:\n%s", out)
	}
	if !strings.Contains(out, "dynamic: probes=") {
		t.Errorf("missing dynamic stats:\n%s", out)
	}
}

func TestScenarioNoPath(t *testing.T) {
	path := writeScenario(t, "n 8\nlink 1 5 0\n")
	out := runOK(t, 8, "scenario", path, "5", "5")
	if !strings.Contains(out, "no blockage-free path") {
		t.Errorf("expected no-path report:\n%s", out)
	}
}

func TestConnectivityCommand(t *testing.T) {
	path := writeScenario(t, "n 8\nlink 1 5 0\n")
	out := runOK(t, 8, "connectivity", path)
	if !strings.Contains(out, "pairs routable") {
		t.Errorf("connectivity output wrong:\n%s", out)
	}
	if strings.Contains(out, "100.0%") {
		t.Errorf("straight fault should reduce connectivity:\n%s", out)
	}
}

func TestSimulateCommand(t *testing.T) {
	out := runOK(t, 8, "simulate", "adaptive", "0.3")
	if !strings.Contains(out, "throughput") {
		t.Errorf("simulate output wrong:\n%s", out)
	}
	runErr(t, 8, "simulate", "bogus", "0.3")
	runErr(t, 8, "simulate", "static", "x")
	runErr(t, 8, "simulate", "static")
}

func TestSimulateReplicas(t *testing.T) {
	out := runOK(t, 8, "simulate", "adaptive", "0.3", "4")
	if strings.Count(out, "seed ") != 4 {
		t.Errorf("want 4 per-seed lines:\n%s", out)
	}
	if !strings.Contains(out, "over 4 replicas") {
		t.Errorf("missing aggregate line:\n%s", out)
	}
	// The fan-out must not depend on worker count: explicit workers give
	// the same report.
	var sb strings.Builder
	o := defaultOptions(8)
	o.workers = 3
	if err := run(&sb, o, []string{"simulate", "adaptive", "0.3", "4"}); err != nil {
		t.Fatal(err)
	}
	if sb.String() != out {
		t.Errorf("workers=3 report differs from workers=0:\n%s\nvs\n%s", sb.String(), out)
	}
	runErr(t, 8, "simulate", "adaptive", "0.3", "0")
	runErr(t, 8, "simulate", "adaptive", "0.3", "zz")
	runErr(t, 8, "simulate", "adaptive", "0.3", "4", "5")
}

func TestWormholeCommand(t *testing.T) {
	out := runOK(t, 8, "wormhole", "adaptive", "0.4")
	if !strings.Contains(out, "4 flits/packet, 2 lanes x 2 flits") {
		t.Errorf("wormhole output missing operating point:\n%s", out)
	}
	if !strings.Contains(out, "throughput") || !strings.Contains(out, "flit") {
		t.Errorf("wormhole output wrong:\n%s", out)
	}
	runErr(t, 8, "wormhole", "bogus", "0.4")
	runErr(t, 8, "wormhole", "static", "x")
	runErr(t, 8, "wormhole", "static")
	runErr(t, 8, "wormhole", "static", "0.4", "0")
}

func TestWormholeSeedFlag(t *testing.T) {
	o1 := defaultOptions(8)
	o2 := defaultOptions(8)
	o2.seed = 99
	var a, b, c strings.Builder
	if err := run(&a, o1, []string{"wormhole", "adaptive", "0.4"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, o2, []string{"wormhole", "adaptive", "0.4"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&c, o1, []string{"wormhole", "adaptive", "0.4"}); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Errorf("different seeds gave identical reports:\n%s", a.String())
	}
	if a.String() != c.String() {
		t.Errorf("same seed gave different reports:\n%s\nvs\n%s", a.String(), c.String())
	}
}

func TestWormholeReplicas(t *testing.T) {
	out := runOK(t, 8, "wormhole", "adaptive", "0.4", "3")
	if strings.Count(out, "seed ") != 3 {
		t.Errorf("want 3 per-seed lines:\n%s", out)
	}
	if !strings.Contains(out, "over 3 replicas") {
		t.Errorf("missing aggregate line:\n%s", out)
	}
}

func TestWormholeTrafficFlag(t *testing.T) {
	for _, tr := range []string{"uniform", "hotspot", "bitcomplement", "tornado"} {
		o := defaultOptions(8)
		o.traffic = tr
		var sb strings.Builder
		if err := run(&sb, o, []string{"wormhole", "adaptive", "0.4"}); err != nil {
			t.Fatalf("traffic %s: %v", tr, err)
		}
	}
	o := defaultOptions(8)
	o.traffic = "bogus"
	var sb strings.Builder
	if err := run(&sb, o, []string{"wormhole", "adaptive", "0.4"}); err == nil {
		t.Error("accepted unknown traffic pattern")
	}
}

func TestWormholeScenario(t *testing.T) {
	path := writeScenario(t, "n 8\nlanes 4\ndepth 3\nlink 1 5 0\n")
	o := defaultOptions(8)
	o.scenPath = path
	var sb strings.Builder
	if err := run(&sb, o, []string{"wormhole", "adaptive", "0.4"}); err != nil {
		t.Fatal(err)
	}
	// The scenario's lanes/depth directives override the flag defaults.
	if !strings.Contains(sb.String(), "4 lanes x 3 flits") {
		t.Errorf("scenario lanes/depth not applied:\n%s", sb.String())
	}
	// A scenario for a different size is rejected rather than silently
	// resized.
	o16 := defaultOptions(16)
	o16.scenPath = path
	var sb16 strings.Builder
	if err := run(&sb16, o16, []string{"wormhole", "adaptive", "0.4"}); err == nil {
		t.Error("accepted a scenario for the wrong network size")
	}
	o.scenPath = "/nonexistent/file"
	if err := run(&sb, o, []string{"wormhole", "adaptive", "0.4"}); err == nil {
		t.Error("accepted a missing scenario file")
	}
}

// TestPacketModeRejectsWormholeScenario: scenarios pinning a wormhole
// operating point have no packet-mode meaning; the packet-mode scenario
// consumers must refuse them rather than silently ignore the directives.
func TestPacketModeRejectsWormholeScenario(t *testing.T) {
	path := writeScenario(t, "n 8\nlanes 4\nlink 1 5 0\n")
	runErr(t, 8, "scenario", path, "1", "0")
	runErr(t, 8, "connectivity", path)
}

func TestEquivCommand(t *testing.T) {
	out := runOK(t, 8, "equiv")
	if strings.Count(out, "isomorphic to generalized-cube: true") != 5 {
		t.Errorf("equiv output wrong:\n%s", out)
	}
}

func TestScenarioFileErrors(t *testing.T) {
	runErr(t, 8, "scenario", "/nonexistent/file", "1", "0")
	runErr(t, 8, "scenario")
	bad := writeScenario(t, "garbage\n")
	runErr(t, 8, "scenario", bad, "1", "0")
	runErr(t, 8, "connectivity", "/nonexistent/file")
	runErr(t, 8, "connectivity")
}

func TestMulticastCommand(t *testing.T) {
	out := runOK(t, 16, "multicast", "5", "0", "4", "8", "12")
	if !strings.Contains(out, "tree links: 8 (unicasts would use 16)") {
		t.Errorf("multicast output wrong:\n%s", out)
	}
	runErr(t, 16, "multicast", "5")
	runErr(t, 16, "multicast", "99", "0")
	runErr(t, 16, "multicast", "0", "99")
}

func TestReliabilityCommand(t *testing.T) {
	out := runOK(t, 16, "reliability", "1", "0", "0.05")
	if !strings.Contains(out, "= 0.983399") {
		t.Errorf("reliability output wrong:\n%s", out)
	}
	if !strings.Contains(out, "ICube reference: 0.814506") {
		t.Errorf("missing ICube reference:\n%s", out)
	}
	runErr(t, 16, "reliability", "1", "0")
	runErr(t, 16, "reliability", "1", "0", "zzz")
	runErr(t, 16, "reliability", "1", "0", "1.5")
}

func TestExplainCommand(t *testing.T) {
	out := runOK(t, 8, "explain", "1", "0", "1:0:0")
	if !strings.Contains(out, "Corollary 4.2") || !strings.Contains(out, "done") {
		t.Errorf("explain output wrong:\n%s", out)
	}
	out = runOK(t, 8, "explain", "5", "5", "1:5:0")
	if !strings.Contains(out, "FAIL") {
		t.Errorf("explain FAIL narration missing:\n%s", out)
	}
	runErr(t, 8, "explain", "1")
	runErr(t, 8, "explain", "1", "0", "zz")
}
