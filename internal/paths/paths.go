// Package paths provides the path theory of the IADM network: enumeration
// of all routing paths between a source/destination pair, the pivot
// structure of Lemma A2.1, and an exact oracle that decides whether a
// blockage-free path exists (used as ground truth against which the paper's
// universal REROUTE algorithm is verified).
//
// The key structural fact (Lemma A2.1) is that for a given (s, d) pair
// every stage holds at most two switches that lie on any routing path
// ("pivots"): exactly one up to the stage k̂ of the first possible
// nonstraight link, exactly two afterwards, and the two differ by 2^k.
// Consequently reachability with blocked links can be decided by a
// frontier walk that carries at most two switches per stage — an O(n)
// exact decision procedure.
package paths

import (
	"fmt"

	"iadm/internal/bitutil"
	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// NextLinks returns the participating output links of switch j at stage i
// on routes to destination d: the straight link alone when bit i of j
// already equals d_i, or the two oppositely signed nonstraight links
// (the state-C link first) otherwise. This is Theorem 3.2 in link form:
// the participating output links of a switch are its straight link or both
// of its nonstraight links, never all three.
func NextLinks(p topology.Params, i, j, d int) []topology.Link {
	t := int(bitutil.Bit(uint64(d), i))
	cLink := core.LinkFor(i, j, t, core.StateC)
	if !cLink.Kind.Nonstraight() {
		return []topology.Link{cLink}
	}
	return []topology.Link{cLink, core.LinkFor(i, j, t, core.StateCBar)}
}

// Enumerate returns every routing path from s to d, as link sequences; the
// two parallel links of stage n-1 yield distinct paths. The number of paths
// is exponential in the number of divergent stages, so this is intended for
// small networks (figures, exhaustive tests); use CountPaths for counting
// and Exists/Find for reachability.
func Enumerate(p topology.Params, s, d int) []core.Path {
	var out []core.Path
	links := make([]topology.Link, p.Stages())
	var dfs func(i, j int)
	dfs = func(i, j int) {
		if i == p.Stages() {
			pa, err := core.NewPath(p, s, append([]topology.Link(nil), links...))
			if err != nil {
				panic(fmt.Sprintf("paths: enumerated invalid path: %v", err))
			}
			out = append(out, pa)
			return
		}
		for _, l := range NextLinks(p, i, j, d) {
			links[i] = l
			dfs(i+1, l.To(p))
		}
	}
	dfs(0, s)
	return out
}

// CountPaths returns the number of distinct link-paths and switch-paths
// from s to d. Link-paths distinguish the parallel +-2^{n-1} links of the
// last stage; switch-paths identify paths visiting the same switches.
// Computed by dynamic programming over the (at most two) pivots per stage.
func CountPaths(p topology.Params, s, d int) (linkPaths, switchPaths int) {
	type cnt struct{ links, switches int }
	cur := map[int]cnt{s: {1, 1}}
	for i := 0; i < p.Stages(); i++ {
		next := make(map[int]cnt, 2)
		for j, c := range cur {
			seen := make(map[int]bool, 2)
			for _, l := range NextLinks(p, i, j, d) {
				to := l.To(p)
				acc := next[to]
				acc.links += c.links
				if !seen[to] {
					acc.switches += c.switches
					seen[to] = true
				}
				next[to] = acc
			}
		}
		cur = next
	}
	c := cur[d]
	return c.links, c.switches
}

// Pivots returns, for each stage 0..n, the sorted set of switches that lie
// on at least one routing path from s to d (Lemma A2.1's pivots). The
// result has exactly one switch per stage up to the first divergence and
// exactly two afterwards (for s != d).
func Pivots(p topology.Params, s, d int) [][]int {
	out := make([][]int, p.Stages()+1)
	cur := []int{s}
	out[0] = []int{s}
	for i := 0; i < p.Stages(); i++ {
		var next []int
		for _, j := range cur {
			for _, l := range NextLinks(p, i, j, d) {
				to := l.To(p)
				if !contains(next, to) {
					next = append(next, to)
				}
			}
		}
		sortInts(next)
		out[i+1] = next
		cur = next
	}
	return out
}

// FirstDivergence returns k̂, the smallest stage at which a routing path
// from s to d can use a nonstraight link: the index of the lowest bit where
// s and d differ. For s == d it returns (0, false): every stage is forced
// straight and the path is unique.
func FirstDivergence(p topology.Params, s, d int) (int, bool) {
	x := uint64(s ^ d)
	if x == 0 {
		return 0, false
	}
	for i := 0; ; i++ {
		if bitutil.Bit(x, i) == 1 {
			return i, true
		}
	}
}

// maxStages bounds the frontier arrays of the packed walks: topology caps
// N at 2^30, so n <= 30 stages always fit.
const maxStages = 30

// participating mirrors NextLinks without the slice: it returns the
// (at most two) participating output link kinds of switch j at stage i on
// routes to d. For a straight stage k2 is returned as ok=false; for a
// divergent stage k1 is the state-C link's kind and k2 its opposite.
func participating(i, j, d int) (k1, k2 topology.LinkKind, both bool) {
	if bitutil.Bit(uint64(j), i) == bitutil.Bit(uint64(d), i) {
		return topology.Straight, topology.Straight, false
	}
	// Divergent stage: the state-C link is +2^i from an even_i switch and
	// -2^i from an odd_i switch (Lemma 2.1); the C̄ link is its opposite.
	if bitutil.Bit(uint64(j), i) == 0 {
		return topology.Plus, topology.Minus, true
	}
	return topology.Minus, topology.Plus, true
}

// Exists reports whether a blockage-free routing path from s to d exists
// under blk. It is exact: the frontier of reachable pivots per stage has at
// most two members (Lemma A2.1), so a full frontier walk costs O(n). The
// frontier lives in two fixed-size arrays — the walk performs no heap
// allocations, which is what lets the all-pairs reroutability sweeps in
// internal/analysis run N^2 oracle calls at full speed. This is the
// ground-truth oracle for algorithm REROUTE.
func Exists(p topology.Params, s, d int, blk *blockage.Set) bool {
	var cur, next [2]int
	cur[0], cur[1] = s, -1
	for i := 0; i < p.Stages(); i++ {
		next[0], next[1] = -1, -1
		nc := 0
		for ci := 0; ci < 2; ci++ {
			j := cur[ci]
			if j < 0 {
				break
			}
			k1, k2, both := participating(i, j, d)
			if !blk.Blocked(topology.Link{Stage: i, From: j, Kind: k1}) {
				nc = frontierAdd(&next, nc, step(p, i, j, k1))
			}
			if both && !blk.Blocked(topology.Link{Stage: i, From: j, Kind: k2}) {
				nc = frontierAdd(&next, nc, step(p, i, j, k2))
			}
		}
		if nc == 0 {
			return false
		}
		cur = next
	}
	return cur[0] == d || cur[1] == d
}

// frontierAdd inserts switch j into the two-slot frontier if absent. More
// than two distinct pivots per stage would contradict Lemma A2.1, so that
// case panics rather than silently dropping a reachable switch.
func frontierAdd(next *[2]int, nc, j int) int {
	if nc > 0 && next[0] == j {
		return nc
	}
	if nc > 1 && next[1] == j {
		return nc
	}
	if nc == 2 {
		panic("paths: more than two pivots in a stage frontier (Lemma A2.1 violated)")
	}
	next[nc] = j
	return nc + 1
}

// step advances switch j across stage i along link kind k (Link.To without
// the Link).
func step(p topology.Params, i, j int, k topology.LinkKind) int {
	switch k {
	case topology.Minus:
		return p.Mod(j - 1<<uint(i))
	case topology.Plus:
		return p.Mod(j + 1<<uint(i))
	default:
		return j
	}
}

// FindPacked returns a blockage-free routing path from s to d if one
// exists, as a packed path, using the same two-pivot frontier walk as
// Exists plus per-stage parent bookkeeping in fixed-size arrays — zero
// heap allocations.
func FindPacked(p topology.Params, s, d int, blk *blockage.Set) (core.PackedPath, bool) {
	// fr[i] holds the (<=2) reachable pivots of stage i; via/prev record,
	// for each, the link kind that reached it and the frontier slot of its
	// stage-(i-1) parent.
	var fr [maxStages + 1][2]int32
	var via [maxStages + 1][2]int8
	var prev [maxStages + 1][2]int8
	n := p.Stages()
	fr[0][0], fr[0][1] = int32(s), -1
	for i := 0; i < n; i++ {
		fr[i+1][0], fr[i+1][1] = -1, -1
		nc := 0
		add := func(ci int, k topology.LinkKind) {
			if blk.Blocked(topology.Link{Stage: i, From: int(fr[i][ci]), Kind: k}) {
				return
			}
			to := int32(step(p, i, int(fr[i][ci]), k))
			if (nc > 0 && fr[i+1][0] == to) || (nc > 1 && fr[i+1][1] == to) {
				return
			}
			if nc == 2 {
				panic("paths: more than two pivots in a stage frontier (Lemma A2.1 violated)")
			}
			fr[i+1][nc] = to
			via[i+1][nc] = int8(k)
			prev[i+1][nc] = int8(ci)
			nc++
		}
		for ci := 0; ci < 2; ci++ {
			if fr[i][ci] < 0 {
				break
			}
			k1, k2, both := participating(i, int(fr[i][ci]), d)
			add(ci, k1)
			if both {
				add(ci, k2)
			}
		}
		if nc == 0 {
			return core.PackedPath{}, false
		}
	}
	at := -1
	for ci := 0; ci < 2; ci++ {
		if fr[n][ci] == int32(d) {
			at = ci
			break
		}
	}
	if at < 0 {
		return core.PackedPath{}, false
	}
	var kinds [maxStages]topology.LinkKind
	for i := n; i > 0; i-- {
		kinds[i-1] = topology.LinkKind(via[i][at])
		at = int(prev[i][at])
	}
	return core.PackKinds(s, kinds[:n]), true
}

// Find returns a blockage-free routing path from s to d if one exists. It
// is FindPacked plus the unpack to the slice-backed Path (one allocation,
// for the links).
func Find(p topology.Params, s, d int, blk *blockage.Set) (core.Path, bool) {
	pp, ok := FindPacked(p, s, d, blk)
	if !ok {
		return core.Path{}, false
	}
	pa := pp.Unpack(p, nil)
	if err := pa.Validate(); err != nil {
		panic(fmt.Sprintf("paths: Find constructed invalid path: %v", err))
	}
	return pa, true
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for k := i; k > 0 && s[k-1] > s[k]; k-- {
			s[k-1], s[k] = s[k], s[k-1]
		}
	}
}
