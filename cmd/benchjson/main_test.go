package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: iadm/internal/simulator
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCyclesPerSecond/N=8/static-C-4         	    1000	     50000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCyclesPerSecond/N=8/static-C-4         	    1000	     48000 ns/op	       0 B/op	       0 allocs/op
BenchmarkCyclesPerSecond/N=64/adaptive-SSDT-4   	     200	    650000 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotspotRun-4                           	     500	    123456.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	iadm/internal/simulator	2.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Package != "iadm/internal/simulator" {
		t.Errorf("metadata wrong: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu wrong: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	first := rep.Benchmarks[0]
	if first.Name != "BenchmarkCyclesPerSecond/N=8/static-C" {
		t.Errorf("name (GOMAXPROCS suffix must be stripped): %q", first.Name)
	}
	if len(first.Samples) != 2 {
		t.Fatalf("repeated lines must group: %d samples", len(first.Samples))
	}
	if first.MinNsPerOp != 48000 || first.MeanNsPerOp != 49000 {
		t.Errorf("aggregates wrong: min %v mean %v", first.MinNsPerOp, first.MeanNsPerOp)
	}
	if first.AllocsPerOp != 0 || first.Samples[0].BytesPerOp != 0 {
		t.Errorf("benchmem columns wrong: %+v", first)
	}
	if got := rep.Benchmarks[2]; got.Name != "BenchmarkHotspotRun" || got.Samples[0].NsPerOp != 123456.5 {
		t.Errorf("fractional ns/op wrong: %+v", got)
	}
}

func TestParseWithoutBenchmem(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkX-8   100   42 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("got %d benchmarks", len(rep.Benchmarks))
	}
	s := rep.Benchmarks[0].Samples[0]
	if s.NsPerOp != 42 || s.Runs != 100 {
		t.Errorf("sample wrong: %+v", s)
	}
	if s.BytesPerOp != -1 || s.AllocsPerOp != -1 {
		t.Errorf("missing benchmem columns must read -1: %+v", s)
	}
}

const multiPkgOutput = `goos: linux
goarch: amd64
pkg: iadm/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRouteSSDTPacked/N=4096-4 	 4000000	        82.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouteSSDTPacked/N=4096-4 	 4000000	        81.9 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	iadm/internal/core	1.234s
pkg: iadm/internal/paths
BenchmarkFind/N=4096-4            	  500000	       661.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	iadm/internal/paths	0.567s
`

// TestParseMultiPackage: result lines are attributed to the preceding pkg:
// header, names are qualified with the package base element, and the
// report's package field lists every package.
func TestParseMultiPackage(t *testing.T) {
	rep, err := parse(strings.NewReader(multiPkgOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Package != "iadm/internal/core,iadm/internal/paths" {
		t.Errorf("package list wrong: %q", rep.Package)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	ssdt := rep.Benchmarks[0]
	if ssdt.Name != "core.BenchmarkRouteSSDTPacked/N=4096" || ssdt.Package != "iadm/internal/core" {
		t.Errorf("qualified name/package wrong: %+v", ssdt)
	}
	if len(ssdt.Samples) != 2 || ssdt.MinNsPerOp != 81.9 {
		t.Errorf("sample grouping wrong: %+v", ssdt)
	}
	if find := rep.Benchmarks[1]; find.Name != "paths.BenchmarkFind/N=4096" || find.Package != "iadm/internal/paths" {
		t.Errorf("qualified name/package wrong: %+v", find)
	}
}

// TestParseSinglePackageShape: one-package reports keep unqualified names
// and omit the per-benchmark package field, so the committed
// BENCH_simulator.json baseline still compares.
func TestParseSinglePackageShape(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if strings.Contains(b.Name, ".Benchmark") || b.Package != "" {
			t.Errorf("single-package benchmark must stay unqualified: %+v", b)
		}
	}
}

const metricOutput = `goos: linux
goarch: amd64
pkg: iadm/internal/routesvc
BenchmarkTagStoreFlat/N=4096-4 	24426476	        48.50 ns/op	        78.77 bits/route	       0 B/op	       0 allocs/op
BenchmarkTagStoreFlat/N=4096-4 	24426476	        49.50 ns/op	        78.79 bits/route	       0 B/op	       0 allocs/op
BenchmarkTagStoreDense/N=4096-4 	183577429	         6.533 ns/op	        13.03 bits/route	       0 B/op	       0 allocs/op
PASS
ok  	iadm/internal/routesvc	9.876s
`

// TestParseCustomMetrics: b.ReportMetric columns print between ns/op and
// the -benchmem pair; they land in a per-sample metrics map and average
// into the benchmark's, without disturbing the benchmem columns.
func TestParseCustomMetrics(t *testing.T) {
	rep, err := parse(strings.NewReader(metricOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	flat := rep.Benchmarks[0]
	if flat.Samples[0].NsPerOp != 48.5 || flat.Samples[0].BytesPerOp != 0 || flat.Samples[0].AllocsPerOp != 0 {
		t.Errorf("standard columns disturbed: %+v", flat.Samples[0])
	}
	if got := flat.Samples[0].Metrics["bits/route"]; got != 78.77 {
		t.Errorf("sample bits/route = %v, want 78.77", got)
	}
	if got := flat.Metrics["bits/route"]; got != 78.78 {
		t.Errorf("mean bits/route = %v, want 78.78", got)
	}
	if dense := rep.Benchmarks[1]; dense.Metrics["bits/route"] != 13.03 {
		t.Errorf("dense metrics wrong: %+v", dense.Metrics)
	}
}

// TestMetricMapDeterministic: the metrics map must marshal with sorted
// keys, byte-identically across marshals, regardless of insertion order
// — committed BENCH_*.json reports are diffed, so key order is contract.
func TestMetricMapDeterministic(t *testing.T) {
	units := []string{"ns/route", "bits/route", "lanes/block", "B/route", "fill%"}
	build := func(perm []int) metricMap {
		m := metricMap{}
		for _, i := range perm {
			m[units[i]] = float64(i) + 0.5
		}
		return m
	}
	want, err := json.Marshal(build([]int{0, 1, 2, 3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 4, 0, 3, 2}} {
		got, err := json.Marshal(build(perm))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("insertion order %v changed the encoding:\n got %s\nwant %s", perm, got, want)
		}
	}
	// Keys appear in sorted order in the output.
	var decoded map[string]float64
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatalf("sorted encoding does not round-trip: %v\n%s", err, want)
	}
	sorted := append([]string(nil), units...)
	sort.Strings(sorted)
	pos := -1
	for _, k := range sorted {
		i := bytes.Index(want, []byte(fmt.Sprintf("%q", k)))
		if i < pos {
			t.Fatalf("key %q out of sorted order in %s", k, want)
		}
		pos = i
	}
}

// TestMetricMapInReport: the full report document embeds the sorted maps
// (both per-sample and per-benchmark) and stays byte-stable.
func TestMetricMapInReport(t *testing.T) {
	mk := func() Report {
		return Report{
			Package: "iadm/internal/fleet",
			Benchmarks: []Benchmark{{
				Name:    "BenchmarkFleetBatchRouted/n=64",
				Samples: []Sample{{Runs: 10, NsPerOp: 1, Metrics: metricMap{"z/unit": 1, "a/unit": 2, "m/unit": 3}}},
				Metrics: metricMap{"z/unit": 1, "a/unit": 2, "m/unit": 3},
			}},
		}
	}
	a, err := json.MarshalIndent(mk(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(mk(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("report encoding not deterministic:\n%s\nvs\n%s", a, b)
	}
	az, ai := bytes.Index(a, []byte(`"a/unit"`)), bytes.Index(a, []byte(`"z/unit"`))
	if az < 0 || ai < 0 || az > ai {
		t.Errorf("metrics keys not sorted in report:\n%s", a)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	rep, err := parse(strings.NewReader("PASS\nok  \tiadm\t1.2s\nrandom text\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("noise parsed as benchmarks: %+v", rep.Benchmarks)
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, MinNsPerOp: ns, MeanNsPerOp: ns}
	}
	baseline := Report{Benchmarks: []Benchmark{
		mk("BenchmarkA/N=8", 1000),
		mk("BenchmarkB", 2000),
		mk("BenchmarkGone", 500),
	}}
	fresh := Report{Benchmarks: []Benchmark{
		mk("BenchmarkA/N=8", 1099), // +9.9%: within a 10% tolerance
		mk("BenchmarkB", 2300),     // +15%: regression
		mk("BenchmarkNew", 100),    // new coverage: fine
	}}
	violations := compareReports(baseline, fresh, 0.10)
	if len(violations) != 2 {
		t.Fatalf("want 2 violations (regression + missing), got %d: %v", len(violations), violations)
	}
	for _, v := range violations {
		if !strings.Contains(v, "BenchmarkB") && !strings.Contains(v, "BenchmarkGone") {
			t.Errorf("unexpected violation %q", v)
		}
	}
	if v := compareReports(baseline, fresh, 0.20); len(v) != 1 {
		t.Errorf("at 20%% tolerance only the missing benchmark should remain, got %v", v)
	}
}

// TestCompareOnMin: the gate reads min_ns_per_op — one slow sample that
// drags the mean up is host noise, not a regression; a slower fastest
// sample is.
func TestCompareOnMin(t *testing.T) {
	baseline := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkNoisy", MinNsPerOp: 1000, MeanNsPerOp: 1050},
		{Name: "BenchmarkSlower", MinNsPerOp: 1000, MeanNsPerOp: 1050},
	}}
	fresh := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkNoisy", MinNsPerOp: 1010, MeanNsPerOp: 1600},
		{Name: "BenchmarkSlower", MinNsPerOp: 1200, MeanNsPerOp: 1210},
	}}
	v := compareReports(baseline, fresh, 0.10)
	if len(v) != 1 || !strings.Contains(v[0], "BenchmarkSlower") || !strings.Contains(v[0], "min 1200") {
		t.Fatalf("want exactly the min regression of BenchmarkSlower, got %v", v)
	}
}

// TestMarkHostInformational: cells whose worker count exceeds nproc are
// marked informational and left out of the gate, in either report; the
// host shape lands on the report.
func TestMarkHostInformational(t *testing.T) {
	mk := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, MinNsPerOp: ns, MeanNsPerOp: ns}
	}
	fresh := Report{Benchmarks: []Benchmark{
		mk("BenchmarkLargeN/N=256/workers=1", 3000),
		mk("BenchmarkLargeN/N=256/workers=2", 3000),
		mk("BenchmarkLargeN/N=256/workers=8", 9000),
		mk("BenchmarkWorkers=9", 3000), // not a name element
	}}
	markHost(&fresh, 2, 2)
	if fresh.NProc != 2 || fresh.GOMAXPROCS != 2 {
		t.Fatalf("host shape %d/%d", fresh.NProc, fresh.GOMAXPROCS)
	}
	for i, want := range []struct {
		workers int
		info    bool
	}{{1, false}, {2, false}, {8, true}, {0, false}} {
		if b := fresh.Benchmarks[i]; b.Workers != want.workers || b.Informational != want.info {
			t.Errorf("%s: workers %d informational %v, want %d %v", b.Name, b.Workers, b.Informational, want.workers, want.info)
		}
	}
	baseline := Report{Benchmarks: []Benchmark{
		mk("BenchmarkLargeN/N=256/workers=1", 1000),
		mk("BenchmarkLargeN/N=256/workers=2", 1000),
		mk("BenchmarkLargeN/N=256/workers=8", 1000),
		mk("BenchmarkWorkers=9", 3000),
	}}
	// workers=1 and workers=2 tripled: gated on this 2-CPU host.
	// workers=8 (9x) is oversubscribed here and not gated.
	if v := compareReports(baseline, fresh, 0.10); len(v) != 2 || strings.Contains(strings.Join(v, " "), "workers=8") {
		t.Fatalf("want the workers=1 and workers=2 regressions, got %v", v)
	}
	// A baseline recorded on a 1-CPU host marks its workers=2 cell
	// informational: that cell is not gated either.
	markHost(&baseline, 1, 1)
	if v := compareReports(baseline, fresh, 0.10); len(v) != 1 || !strings.Contains(v[0], "workers=1") {
		t.Fatalf("want only the workers=1 regression, got %v", v)
	}
	doc, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc":2`, `"gomaxprocs":2`, `"workers":8,"informational":true`} {
		if !strings.Contains(string(doc), key) {
			t.Errorf("report JSON lacks %s: %s", key, doc)
		}
	}
}

// TestRunWithoutOWritesNoFile: with -pkg and no -o the report goes to
// stdout and no file appears, so a hand run never replaces a tracked
// BENCH_*.json baseline.
func TestRunWithoutOWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":    "module benchtmp\n\ngo 1.22\n",
		"x_test.go": "package benchtmp\n\nimport \"testing\"\n\nfunc BenchmarkNop(b *testing.B) {\n\tfor i := 0; i < b.N; i++ {\n\t}\n}\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	var out bytes.Buffer
	if err := run(config{bench: "BenchmarkNop", pkg: ".", count: 1, out: "-"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil || len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkNop" {
		t.Fatalf("stdout report %q: %+v, %v", out.Bytes(), rep, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("files after the run: %v, want only go.mod and x_test.go", names)
	}
}

// TestPairCells: a cell's verdict is the median over the pairs of
// change/base min ns/op, with the pairs the change ran faster counted;
// a cell missing from any run is named and left out.
func TestPairCells(t *testing.T) {
	mk := func(ns float64, allocs int64) Benchmark { return Benchmark{MinNsPerOp: ns, AllocsPerOp: allocs} }
	base := []map[string]Benchmark{
		{"BenchmarkA": mk(100, 3), "BenchmarkB": mk(10, 0), "BenchmarkGone": mk(5, 0)},
		{"BenchmarkA": mk(100, 3), "BenchmarkB": mk(10, 0), "BenchmarkGone": mk(5, 0)},
		{"BenchmarkA": mk(100, 3), "BenchmarkB": mk(10, 0)},
		{"BenchmarkA": mk(100, 3), "BenchmarkB": mk(10, 0)},
	}
	change := []map[string]Benchmark{
		{"BenchmarkA": mk(90, 3), "BenchmarkB": mk(13, 1), "BenchmarkGone": mk(5, 0)},
		{"BenchmarkA": mk(110, 3), "BenchmarkB": mk(12, 1)},
		{"BenchmarkA": mk(95, 3), "BenchmarkB": mk(9, 1)},
		{"BenchmarkA": mk(100, 3), "BenchmarkB": mk(14, 1)},
	}
	cells, missing := pairCells(base, change)
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Fatalf("missing %v, want [BenchmarkGone]", missing)
	}
	if len(cells) != 2 {
		t.Fatalf("cells %+v", cells)
	}
	a, b := cells[0], cells[1]
	if a.Name != "BenchmarkA" || a.Median != 0.975 || a.Wins != 2 || a.BaseAllocs != 3 || a.ChangeAllocs != 3 {
		t.Errorf("A: %+v, want median 0.975 (of 0.90 0.95 1.00 1.10), 2 wins", a)
	}
	if b.Name != "BenchmarkB" || b.Median != 1.25 || b.Wins != 1 || b.ChangeAllocs != 1 {
		t.Errorf("B: %+v, want median 1.25, 1 win", b)
	}
}
