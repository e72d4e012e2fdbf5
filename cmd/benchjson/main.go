// Command benchjson runs the simulator benchmark suite and writes the
// parsed results as JSON, so CI (or a developer) can track the tracked
// numbers — ns/op and allocs/op of the cycle loop — across commits
// without scraping `go test -bench` text by hand.
//
// Usage:
//
//	benchjson [-bench regex] [-pkg path] [-count N] [-o file] [-compare file] [-tolerance frac]
//
// Defaults run the tracked benchmarks (BenchmarkCyclesPerSecond and
// BenchmarkLargeN) in ./internal/simulator with -count 5 and write
// BENCH_simulator.json. With -count > 1 every sample is kept and each
// benchmark also reports the min and mean ns/op across its samples (min
// is the stable number to compare across machines). Reports record the
// go version and the git commit they were produced at.
//
// -pkg accepts a comma-separated package list (the routing suite spans
// five packages); in multi-package reports every benchmark name is
// qualified with its package's base element, e.g.
// "paths.BenchmarkFind/N=4096", so the names -compare keys on stay
// unique. Single-package reports keep the historical unqualified shape.
//
// Custom b.ReportMetric columns (e.g. a bits/route footprint column)
// are kept per sample and averaged into a per-benchmark metrics map, so
// footprint numbers land in the report alongside latency.
//
// Reports record the host shape they were measured on: nproc (logical
// CPUs) and GOMAXPROCS. A benchmark cell whose name carries a worker
// count ("workers=8") above nproc is oversubscribed — its workers
// time-share cores, so its timing measures the host scheduler more than
// the code — and is marked informational.
//
// With -compare, the fresh results are checked against a committed
// baseline report and the command fails if any benchmark's min_ns_per_op
// (the least noisy of the per-sample statistics: host interference only
// ever adds time) regressed by more than -tolerance (default 0.10), or if
// a baseline benchmark is missing from the new run — `make bench-compare`
// wires this as the CI perf gate. Informational cells, in the baseline or
// the fresh run, are reported but not gated. Custom metrics are recorded
// but not gated.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricMap is a metrics column map that marshals its keys in sorted
// order. encoding/json happens to sort map keys today, but stable
// BENCH_*.json diffs are a contract of this tool — reports are committed
// and diffed across commits — so the ordering is pinned here instead of
// inherited as a library implementation detail.
type metricMap map[string]float64

func (m metricMap) MarshalJSON() ([]byte, error) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		vb, err := json.Marshal(m[k])
		if err != nil {
			return nil, err
		}
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// Sample is one `go test -bench` result line. Metrics holds custom
// b.ReportMetric columns (e.g. "bits/route": 78.77) that go test prints
// between ns/op and the -benchmem columns.
type Sample struct {
	Runs        int       `json:"runs"`
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	Metrics     metricMap `json:"metrics,omitempty"`
}

// Benchmark aggregates the samples of one benchmark name. In
// multi-package runs Name is qualified with the package's base element
// ("paths.BenchmarkFind/N=4096") so names stay unique, and Package holds
// the full import path.
//
// Workers is the worker count parsed from a "workers=N" name element (0
// when absent); Informational marks a cell whose Workers exceeds the
// host's nproc, which -compare does not gate.
type Benchmark struct {
	Name          string    `json:"name"`
	Package       string    `json:"package,omitempty"`
	Samples       []Sample  `json:"samples"`
	MinNsPerOp    float64   `json:"min_ns_per_op"`
	MeanNsPerOp   float64   `json:"mean_ns_per_op"`
	AllocsPerOp   int64     `json:"allocs_per_op"`
	Metrics       metricMap `json:"metrics,omitempty"`
	Workers       int       `json:"workers,omitempty"`
	Informational bool      `json:"informational,omitempty"`
}

// Report is the emitted JSON document. NProc and GOMAXPROCS record the
// host shape the numbers were measured on.
type Report struct {
	Package    string      `json:"package"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NProc      int         `json:"nproc,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	GoVersion  string      `json:"go_version,omitempty"`
	Commit     string      `json:"commit,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// workersElem matches a benchmark name's worker-count element.
var workersElem = regexp.MustCompile(`(?:^|/)workers=(\d+)(?:/|$)`)

// markHost records the host shape on rep and marks every cell whose
// worker count exceeds nproc as informational.
func markHost(rep *Report, nproc, gomaxprocs int) {
	rep.NProc, rep.GOMAXPROCS = nproc, gomaxprocs
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		b.Workers = 0
		if m := workersElem.FindStringSubmatch(b.Name); m != nil {
			b.Workers, _ = strconv.Atoi(m[1])
		}
		b.Informational = b.Workers > nproc
	}
}

// benchLine matches e.g.
//
//	BenchmarkCyclesPerSecond/N=8/static-C-4   500   56556 ns/op   25360 B/op   13 allocs/op
//	BenchmarkTagStoreFlat/N=4096-4   2000000   48.5 ns/op   78.77 bits/route   0 B/op   0 allocs/op
//
// The trailing -4 is GOMAXPROCS and is stripped from the name. The tail
// after ns/op is a sequence of "<value> <unit>" column pairs: the B/op
// and allocs/op columns (present under -benchmem) plus any custom
// b.ReportMetric units, which go test prints between ns/op and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// parse reads `go test -bench` output and groups the result lines by
// (package, benchmark name), preserving first-seen order. Header lines
// (goos, goarch, cpu, pkg) fill the report metadata; a multi-package run
// emits one pkg: header per package and the result lines that follow one
// belong to it, so samples are attributed to the current header.
func parse(r io.Reader) (Report, error) {
	var rep Report
	var pkgs []string
	curPkg := ""
	index := map[[2]string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			curPkg = strings.TrimPrefix(line, "pkg: ")
			seen := false
			for _, p := range pkgs {
				if p == curPkg {
					seen = true
					break
				}
			}
			if !seen {
				pkgs = append(pkgs, curPkg)
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs, err := strconv.Atoi(m[2])
		if err != nil {
			return rep, fmt.Errorf("benchjson: bad runs in %q: %v", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return rep, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
		}
		s := Sample{Runs: runs, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		fields := strings.Fields(m[4])
		if len(fields)%2 != 0 {
			return rep, fmt.Errorf("benchjson: unpaired metric columns in %q", line)
		}
		for j := 0; j < len(fields); j += 2 {
			val, err := strconv.ParseFloat(fields[j], 64)
			if err != nil {
				return rep, fmt.Errorf("benchjson: bad %s value in %q: %v", fields[j+1], line, err)
			}
			switch unit := fields[j+1]; unit {
			case "B/op":
				s.BytesPerOp = int64(val)
			case "allocs/op":
				s.AllocsPerOp = int64(val)
			default:
				if s.Metrics == nil {
					s.Metrics = metricMap{}
				}
				s.Metrics[unit] = val
			}
		}
		key := [2]string{curPkg, m[1]}
		i, ok := index[key]
		if !ok {
			i = len(rep.Benchmarks)
			index[key] = i
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: m[1], Package: curPkg})
		}
		rep.Benchmarks[i].Samples = append(rep.Benchmarks[i].Samples, s)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	rep.Package = strings.Join(pkgs, ",")
	if len(pkgs) > 1 {
		for i := range rep.Benchmarks {
			b := &rep.Benchmarks[i]
			if slash := strings.LastIndex(b.Package, "/"); slash >= 0 {
				b.Name = b.Package[slash+1:] + "." + b.Name
			}
		}
	} else {
		// Single-package reports keep the historical shape: plain names, no
		// per-benchmark package field.
		for i := range rep.Benchmarks {
			rep.Benchmarks[i].Package = ""
		}
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		min, sum := 0.0, 0.0
		for j, s := range b.Samples {
			if j == 0 || s.NsPerOp < min {
				min = s.NsPerOp
			}
			sum += s.NsPerOp
		}
		b.MinNsPerOp = min
		b.MeanNsPerOp = sum / float64(len(b.Samples))
		b.AllocsPerOp = b.Samples[0].AllocsPerOp
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, s := range b.Samples {
			for unit, v := range s.Metrics {
				sums[unit] += v
				counts[unit]++
			}
		}
		if len(sums) > 0 {
			b.Metrics = metricMap{}
			for unit, total := range sums {
				b.Metrics[unit] = total / float64(counts[unit])
			}
		}
	}
	return rep, nil
}

// compareReports checks fresh min_ns_per_op numbers against a baseline:
// a regression beyond tolerance (fractional, e.g. 0.10 = +10%) or a
// baseline benchmark missing from the fresh run is a violation.
// Benchmarks only present in the fresh run are fine (new coverage), and
// informational cells (oversubscribed in either report) are not gated.
func compareReports(baseline, fresh Report, tolerance float64) []string {
	current := map[string]Benchmark{}
	for _, b := range fresh.Benchmarks {
		current[b.Name] = b
	}
	var violations []string
	for _, base := range baseline.Benchmarks {
		got, ok := current[base.Name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: present in baseline but missing from this run", base.Name))
			continue
		}
		if base.MinNsPerOp <= 0 || base.Informational || got.Informational {
			continue
		}
		ratio := got.MinNsPerOp / base.MinNsPerOp
		if ratio > 1+tolerance {
			violations = append(violations, fmt.Sprintf("%s: min %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
				base.Name, got.MinNsPerOp, base.MinNsPerOp, (ratio-1)*100, tolerance*100))
		}
	}
	return violations
}

// gitCommit returns the current HEAD hash, or "" when not in a git
// checkout (the report is still useful without it).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return string(bytes.TrimSpace(out))
}

func main() {
	bench := flag.String("bench", "BenchmarkCyclesPerSecond|BenchmarkLargeN|BenchmarkRunMany/N=1024", "benchmark regex passed to go test -bench")
	pkg := flag.String("pkg", "./internal/simulator", "package(s) to benchmark, comma-separated")
	count := flag.Int("count", 5, "samples per benchmark (go test -count)")
	out := flag.String("o", "BENCH_simulator.json", "output file (- for stdout)")
	compare := flag.String("compare", "", "baseline report to compare against; fail on min_ns_per_op regressions")
	tolerance := flag.Float64("tolerance", 0.10, "fractional regression allowed by -compare (0.10 = +10%)")
	flag.Parse()
	if err := run(*bench, *pkg, *count, *out, *compare, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(bench, pkg string, count int, out, compare string, tolerance float64) error {
	args := []string{"test", "-run", "^$",
		"-bench", bench, "-benchmem", "-count", strconv.Itoa(count)}
	args = append(args, strings.Split(pkg, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go test: %w", err)
	}
	rep, err := parse(strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results matched %q in %s", bench, pkg)
	}
	markHost(&rep, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	rep.GoVersion = runtime.Version()
	rep.Commit = gitCommit()
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "-" {
		if _, err := os.Stdout.Write(doc); err != nil {
			return err
		}
	} else if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	if compare == "" {
		return nil
	}
	baseRaw, err := os.ReadFile(compare)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var baseline Report
	if err := json.Unmarshal(baseRaw, &baseline); err != nil {
		return fmt.Errorf("compare baseline %s: %w", compare, err)
	}
	if violations := compareReports(baseline, rep, tolerance); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchjson: regression:", v)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% of %s", len(violations), tolerance*100, compare)
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% against %s\n", tolerance*100, compare)
	return nil
}
