package main

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// Paired mode answers "is the working tree slower than rev?" on a host
// whose speed drifts by more than the effect being looked for, where a
// recorded baseline cannot: both trees are measured in the same minutes.
// rev's tree is extracted with git archive into a temporary directory
// (the repository's own worktree list is never touched), one test binary
// per package is built from each tree with -trimpath (so equal sources
// give equal binaries, wherever the trees lie), and the binaries run
// alternately, rev's first in every other pair. Each run yields a min
// ns/op per cell; a cell's verdict is the median over the pairs of
// change/base, with the number of pairs the change ran faster.

// pairCell is one benchmark cell's paired result.
type pairCell struct {
	Name         string
	Ratios       []float64 // per pair: the change's min ns/op over the base's
	Median       float64
	Wins         int // pairs in which the change ran faster
	BaseAllocs   int64
	ChangeAllocs int64
}

// pairCells pairs the runs: base[k] and change[k] are pair k's results
// by cell name. A cell missing from any run is left out and named in
// missing.
func pairCells(base, change []map[string]Benchmark) (cells []pairCell, missing []string) {
	seen := map[string]bool{}
	var names []string
	for _, runs := range [][]map[string]Benchmark{base, change} {
		for _, run := range runs {
			for name := range run {
				if !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
			}
		}
	}
	sort.Strings(names)
next:
	for _, name := range names {
		c := pairCell{Name: name}
		for k := range base {
			b, okB := base[k][name]
			g, okG := change[k][name]
			if !okB || !okG || b.MinNsPerOp <= 0 {
				missing = append(missing, name)
				continue next
			}
			r := g.MinNsPerOp / b.MinNsPerOp
			c.Ratios = append(c.Ratios, r)
			if r < 1 {
				c.Wins++
			}
			c.BaseAllocs, c.ChangeAllocs = b.AllocsPerOp, g.AllocsPerOp
		}
		c.Median = median(c.Ratios)
		cells = append(cells, c)
	}
	return cells, missing
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runPaired measures the working tree against c.paired (see the top of
// this file) and prints one line per cell to stdout; it fails when a cell
// is missing from a run or its median ratio exceeds 1 + c.tolerance.
func runPaired(c config, stdout io.Writer) error {
	if c.pairs < 1 {
		return fmt.Errorf("-pairs %d: want at least 1", c.pairs)
	}
	tmp, err := os.MkdirTemp("", "benchjson-paired-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "tree")
	if err := extractRev(c.paired, baseTree); err != nil {
		return err
	}
	changeTree, err := os.Getwd()
	if err != nil {
		return err
	}
	pkgs := strings.Split(c.pkg, ",")
	type binary struct{ path, dir string }
	var bins [2][]binary // [0] base, [1] change
	for side, tree := range []string{baseTree, changeTree} {
		for i, pkg := range pkgs {
			dir, err := goOutput(tree, "list", "-f", "{{.Dir}}", pkg)
			if err != nil {
				return err
			}
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", []string{"base", "change"}[side], i))
			if _, err := goOutput(tree, "test", "-c", "-trimpath", "-o", path, pkg); err != nil {
				return err
			}
			bins[side] = append(bins[side], binary{path, strings.TrimSpace(dir)})
		}
	}
	runs := [2][]map[string]Benchmark{}
	for k := 0; k < c.pairs; k++ {
		order := []int{0, 1}
		if k%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			cells := map[string]Benchmark{}
			for i, bin := range bins[side] {
				cmd := exec.Command(bin.path, "-test.run", "^$", "-test.bench", c.bench,
					"-test.benchmem", "-test.count", fmt.Sprint(c.count), "-test.timeout", "30m")
				cmd.Dir = bin.dir
				cmd.Stderr = os.Stderr
				raw, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s: %w", pkgs[i], err)
				}
				rep, err := parse(bytes.NewReader(raw))
				if err != nil {
					return err
				}
				for _, b := range rep.Benchmarks {
					if len(pkgs) > 1 {
						b.Name = filepath.Base(bin.dir) + "." + b.Name
					}
					cells[b.Name] = b
				}
			}
			runs[side] = append(runs[side], cells)
		}
		fmt.Fprintf(os.Stderr, "benchjson: pair %d/%d done\n", k+1, c.pairs)
	}
	cells, missing := pairCells(runs[0], runs[1])
	if len(cells) == 0 && len(missing) == 0 {
		return fmt.Errorf("no benchmark results matched %q in %s", c.bench, c.pkg)
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cell\tmedian change/%s\tfaster in\tallocs/op %s -> change\t\n", c.paired, c.paired)
	var failed []string
	for _, cell := range cells {
		verdict := ""
		if cell.Median > 1+c.tolerance {
			verdict = "SLOWER"
			failed = append(failed, cell.Name)
		}
		fmt.Fprintf(tw, "%s\tx%.3f\t%d/%d\t%d -> %d\t%s\n", cell.Name, cell.Median, cell.Wins, len(cell.Ratios),
			cell.BaseAllocs, cell.ChangeAllocs, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var errs []error
	if len(missing) > 0 {
		errs = append(errs, fmt.Errorf("missing from a run: %s", strings.Join(missing, ", ")))
	}
	if len(failed) > 0 {
		errs = append(errs, fmt.Errorf("%d cell(s) slower than %s beyond %.0f%% in the median of %d pairs: %s",
			len(failed), c.paired, c.tolerance*100, c.pairs, strings.Join(failed, ", ")))
	}
	return errors.Join(errs...)
}

// goOutput runs the go command in dir and returns its stdout.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

// extractRev writes the tree of commit rev into dir with git archive.
func extractRev(rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	tr := tar.NewReader(bytes.NewReader(raw))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				var body []byte
				if body, err = io.ReadAll(tr); err == nil {
					err = os.WriteFile(path, body, h.FileInfo().Mode().Perm())
				}
			}
		case tar.TypeSymlink:
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = os.Symlink(h.Linkname, path)
			}
		}
		if err != nil {
			return err
		}
	}
}
