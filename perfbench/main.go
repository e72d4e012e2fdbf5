// Command perfbench is the repository's benchmark. It runs one workload
// against the routing service, built in-process from the daemons'
// constructors and served over loopback sockets, or against the
// simulators; checks every answer; and prints its metrics as one JSON
// line. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload hot-singles --seed 1 --seconds 10 --trace 0
//
// --trace 1 runs the traced per-layer ladder instead. README.md describes
// the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flags.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flags.Float64("seconds", 10, "seconds to measure")
	trace := flags.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	clients := flags.Int("clients", 1, "closed-loop clients, at most one per core")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
	}
	var err error
	switch {
	case *workload != "all" && !slices.Contains(workloads, *workload):
		err = fmt.Errorf("unknown workload %q", *workload)
	case *clients < 1 || *clients > runtime.NumCPU():
		err = fmt.Errorf("refusing %d clients on %d cores: clients must be between 1 and the core count", *clients, runtime.NumCPU())
	case !(*seconds > 0):
		err = fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	d := time.Duration(*seconds * float64(time.Second))

	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]host{"host": newHost(*clients)}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range names {
		res, err := runWorkload(w, *seed, d, *trace == 1, *clients, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		if len(names) == 1 {
			all = res
			break
		}
		if err := enc.Encode(map[string]any{"workload": w, "result": res}); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w+"/"+name] = v
		}
	}
	if err := enc.Encode(all); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced or traced, and reports it on
// report.
func runWorkload(w string, seed int64, d time.Duration, traced bool, clients int, report io.Writer) (result, error) {
	pl, err := newPlan(w, seed)
	if err != nil {
		return result{}, err
	}
	var out outcome
	defs := endToEnd
	switch {
	case traced:
		defs = perLayer
		out, err = ladder(pl, clients, d)
	case w == simSweep:
		out, err = simRun(pl, d)
	default:
		out, err = serveRun(pl, clients, d)
	}
	if err != nil {
		return result{}, err
	}
	ms, err := collect(defs, out.vals)
	if err != nil {
		return result{}, err
	}
	if out.sum.attempted < 1 {
		return result{}, errors.New("nothing was attempted")
	}
	fmt.Fprintf(report, "%s (seed %d, %v, traced %v):\n", w, seed, d, traced)
	for _, m := range defs {
		fmt.Fprintf(report, "  %-32s %14.6g %s\n", m.name, ms[m.name].Value, m.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(report, "  %-32s %14.6g %s  (not printed in the result)\n", n.name, n.value, n.unit)
	}
	fmt.Fprintf(report, "  attempted %d: %d routes answered, %d mutations acknowledged, %d failed, %d invalid answers\n",
		out.sum.attempted, out.sum.routed, out.sum.mutations, out.sum.failed, out.sum.invalid)
	if out.sum.first != nil {
		fmt.Fprintf(report, "  first invalid answer: %v\n", out.sum.first)
	}
	return result{
		Correct:   out.sum.invalid == 0,
		Attempted: out.sum.attempted,
		Failed:    out.sum.failed + out.sum.invalid,
		Metrics:   ms,
	}, nil
}

// host is the machine and source a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func newHost(clients int) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source measured: the git commit when the working
// directory is a git checkout, else a digest of its Go sources and module
// files.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
			return strings.TrimSpace(string(sha))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil)[:12])
}
