// Package experiments implements the reproduction harness: one experiment
// per figure, theorem, algorithm and complexity claim of the paper, as
// indexed in DESIGN.md. Each experiment returns a formatted report; the
// cmd/experiments binary prints them and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"iadm/internal/fanout"
)

// Result is the output of one experiment.
type Result struct {
	ID    string
	Title string
	Body  string
}

type experiment struct {
	title string
	run   func() (string, error)
}

var registry = map[string]experiment{}

func register(id, title string, run func() (string, error)) {
	registry[id] = experiment{title: title, run: run}
}

// IDs returns all experiment identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 numerically.
		return expNum(out[i]) < expNum(out[j])
	})
	return out
}

func expNum(id string) int {
	n := 0
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Title returns the registered title for an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by id.
func Run(id string) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	body, err := e.run()
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s failed: %w", id, err)
	}
	return Result{ID: id, Title: e.title, Body: body}, nil
}

// RunAll executes every experiment in order.
func RunAll() ([]Result, error) {
	var out []Result
	for _, id := range IDs() {
		r, err := Run(id)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// parmap evaluates f(0..n-1) on fanout.Map's GOMAXPROCS-bounded pool and
// returns the results in index order, so experiments can fan their
// independent computations out without changing their report text. f must
// be safe for concurrent calls (draw from a shared RNG before the parmap,
// not inside it). On failure the first error by index is returned.
func parmap[T any](n int, f func(i int) (T, error)) ([]T, error) {
	return fanout.Map(n, 0, func(i int) (T, error) {
		v, err := f(i)
		if err != nil {
			return v, fmt.Errorf("task %d: %w", i, err)
		}
		return v, nil
	})
}

// header renders a fixed-width table header row plus separator.
func header(cols ...string) string {
	var sb strings.Builder
	for i, c := range cols {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for i, c := range cols {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", len(c)))
	}
	sb.WriteByte('\n')
	return sb.String()
}
