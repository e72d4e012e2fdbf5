package core

import (
	"fmt"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// PackedPath is the allocation-free encoding of a routing path: the source
// switch plus one 2-bit link-kind code per stage packed into a uint64. A
// route through the IADM network is fully determined by which of its three
// output links each stage takes (Minus/Straight/Plus — the parallel
// last-stage links stay distinguished because their kinds differ), and
// topology caps N at 2^30, so n <= 30 stages need at most 60 bits. The
// whole value is 16 bytes, comparable with ==, and every accessor below
// recomputes switch labels by walking the codes instead of storing links.
//
// PackedPath is the currency of the packed routing kernels
// (FollowStatePacked, RouteSSDTPacked, RouteTSDTPacked, FollowStateBatch)
// and of the frontier walks in internal/paths; Unpack/PackPath convert to
// and from the slice-backed Path at the boundary where callers want the
// richer API.
type PackedPath struct {
	src   int32
	n     uint8
	kinds uint64
}

// PackPath converts a Path to its packed form. The path must have at most
// 32 stages, which every topology.Params guarantees.
func PackPath(pa Path) PackedPath {
	var kinds uint64
	for i, l := range pa.Links {
		kinds |= uint64(l.Kind) << (2 * uint(i))
	}
	return PackedPath{src: int32(pa.Source), n: uint8(len(pa.Links)), kinds: kinds}
}

// PackKinds assembles a packed path from a source switch and per-stage
// link kinds (at most 32); internal/paths emits the results of its frontier
// walks through this.
func PackKinds(source int, kinds []topology.LinkKind) PackedPath {
	var bits uint64
	for i, k := range kinds {
		bits |= uint64(k) << (2 * uint(i))
	}
	return PackedPath{src: int32(source), n: uint8(len(kinds)), kinds: bits}
}

// Unpack expands the packed path into a slice-backed Path. With a nil
// arena the links get one allocation of their own; otherwise they are
// appended to *arena (one backing array for a whole batch of paths when
// its capacity suffices) and the Path's Links is capped at its own
// length, so appending to it never overwrites the next path's links.
func (pp PackedPath) Unpack(p topology.Params, arena *[]topology.Link) Path {
	if arena == nil {
		return Path{p: p, Source: int(pp.src), Links: pp.LinksInto(p, make([]topology.Link, 0, pp.n))}
	}
	at := len(*arena)
	*arena = pp.LinksInto(p, *arena)
	return Path{p: p, Source: int(pp.src), Links: (*arena)[at:len(*arena):len(*arena)]}
}

// Source returns the switch the path starts from.
func (pp PackedPath) Source() int { return int(pp.src) }

// Stages returns the number of stages (= links) the path covers.
func (pp PackedPath) Stages() int { return int(pp.n) }

// KindAt returns the link kind the path takes at stage i.
func (pp PackedPath) KindAt(i int) topology.LinkKind {
	return topology.LinkKind(pp.kinds >> (2 * uint(i)) & 3)
}

// Step returns the switch that taking a kind-k link from j∈S_i reaches;
// it is Link.To without materializing the Link. Kind codes order
// Minus < Straight < Plus, so the signed stage delta is (k-1)·2^i, and the
// power-of-two size makes the wraparound a mask.
func Step(p topology.Params, i, j int, k topology.LinkKind) int {
	return (j + (int(k)-1)<<uint(i)) & (p.Size() - 1)
}

// Destination returns the switch the path reaches in the output column.
func (pp PackedPath) Destination(p topology.Params) int {
	j := int(pp.src)
	for i := 0; i < int(pp.n); i++ {
		j = Step(p, i, j, pp.KindAt(i))
	}
	return j
}

// SwitchAt returns the switch the path visits at stage i (0 <= i <= n).
// It walks the first i codes, so iterating all stages this way is
// quadratic; use SwitchesInto for full traversals.
func (pp PackedPath) SwitchAt(p topology.Params, i int) int {
	j := int(pp.src)
	for k := 0; k < i; k++ {
		j = Step(p, k, j, pp.KindAt(k))
	}
	return j
}

// SwitchesInto appends the n+1 switch labels the path visits to dst
// (usually dst[:0] of a reused buffer) and returns the extended slice.
func (pp PackedPath) SwitchesInto(p topology.Params, dst []int) []int {
	j := int(pp.src)
	dst = append(dst, j)
	for i := 0; i < int(pp.n); i++ {
		j = Step(p, i, j, pp.KindAt(i))
		dst = append(dst, j)
	}
	return dst
}

// LinksInto appends the path's links to dst (usually dst[:0] of a reused
// buffer) and returns the extended slice.
func (pp PackedPath) LinksInto(p topology.Params, dst []topology.Link) []topology.Link {
	j := int(pp.src)
	for i := 0; i < int(pp.n); i++ {
		k := pp.KindAt(i)
		dst = append(dst, topology.Link{Stage: i, From: j, Kind: k})
		j = Step(p, i, j, k)
	}
	return dst
}

// FirstBlocked returns the smallest stage whose link is blocked, or
// (-1, false) if the path is blockage-free. Allocation-free.
func (pp PackedPath) FirstBlocked(p topology.Params, blk *blockage.Set) (int, bool) {
	j := int(pp.src)
	for i := 0; i < int(pp.n); i++ {
		k := pp.KindAt(i)
		if blk.Blocked(topology.Link{Stage: i, From: j, Kind: k}) {
			return i, true
		}
		j = Step(p, i, j, k)
	}
	return -1, false
}

// Validate checks the packed encoding against the network parameters:
// stage count, source range, no invalid kind code (3), and no stray bits
// above stage n-1.
func (pp PackedPath) Validate(p topology.Params) error {
	if int(pp.n) != p.Stages() {
		return fmt.Errorf("core: packed path has %d stages, want %d", pp.n, p.Stages())
	}
	if !p.ValidSwitch(int(pp.src)) {
		return fmt.Errorf("core: packed path source %d out of range", pp.src)
	}
	for i := 0; i < int(pp.n); i++ {
		if pp.kinds>>(2*uint(i))&3 == 3 {
			return fmt.Errorf("core: packed path has invalid kind code at stage %d", i)
		}
	}
	if int(pp.n) < 32 && pp.kinds>>(2*uint(pp.n)) != 0 {
		return fmt.Errorf("core: packed path has stray bits above stage %d", pp.n-1)
	}
	return nil
}

// String renders the packed path's kind codes LSB-first for diagnostics
// ("-" Minus, "." Straight, "+" Plus); use Unpack for the paper notation.
func (pp PackedPath) String() string {
	buf := make([]byte, 0, int(pp.n)+16)
	buf = fmt.Appendf(buf, "%d:", pp.src)
	for i := 0; i < int(pp.n); i++ {
		switch pp.KindAt(i) {
		case topology.Minus:
			buf = append(buf, '-')
		case topology.Straight:
			buf = append(buf, '.')
		default:
			buf = append(buf, '+')
		}
	}
	return string(buf)
}

// The packed kernels below share two deviations from the legacy loops,
// both exact: N is a power of two, so (j ± 2^i) mod N is (j ± 2^i)&(N-1)
// — a mask instead of topology.Params.Mod's runtime integer division —
// and the link kind is computed directly from bit i of j, tag bit t and
// the switch state (Lemma 2.1: straight iff j_i = t_i; otherwise the
// state-C link is +2^i from an even_i switch and -2^i from an odd_i one,
// and state C̄ flips the sign) instead of materializing LinkFor's Link.
// The differential suite in packed_test.go pins them to the legacy
// routines link-for-link.

// FollowStatePacked is FollowState on the packed representation: it routes
// a message from s to d using the plain n-bit destination tag under the
// given network state, with zero heap allocations. The stage body is
// branchless: whether a stage is straight and which sign a divergent stage
// takes both depend on data-random bits (j_i vs d_i, the switch state), so
// a branchy loop eats a misprediction roughly every other stage — the
// selects below compile to arithmetic instead. With StateC = 0 and
// StateCBar = 1, a divergent stage takes Minus iff j_i differs from the
// state bit (even_i+C and odd_i+C̄ take Plus; Lemma 2.1), so:
//
//	nonstr = j_i ^ d_i            (1 iff the stage diverges)
//	sel    = (j_i ^ state) & nonstr (1 iff the stage takes Minus)
//	delta  = nonstr*2^i negated when sel=1; kind code 1+nonstr-2*sel
func FollowStatePacked(p topology.Params, s, d int, ns *NetworkState) PackedPath {
	var kinds uint64
	mask := p.Size() - 1
	n := p.Stages()
	j, base, bit, shift := s, 0, 1, uint(0)
	for i := 0; i < n; i++ {
		nonstr := (j ^ d) >> uint(i) & 1
		sel := (j>>uint(i)&1 ^ int(ns.st[base+j])) & nonstr
		mag := bit & -nonstr
		j = (j + (mag ^ -sel) + sel) & mask
		kinds |= uint64(1+nonstr-2*sel) << shift
		base += mask + 1
		bit <<= 1
		shift += 2
	}
	return PackedPath{src: int32(s), n: uint8(n), kinds: kinds}
}

// RouteTSDTPacked follows the 2n-bit TSDT tag from source s (Tag.Follow on
// the packed representation), with zero heap allocations. The stage body
// uses the same branchless selects as FollowStatePacked, reading the state
// bit from the tag's upper half instead of a NetworkState.
func RouteTSDTPacked(p topology.Params, s int, t Tag) PackedPath {
	var kinds uint64
	mask := p.Size() - 1
	dbits := int(t.bits)
	sbits := int(t.bits >> uint(t.n))
	j, bit, shift := s, 1, uint(0)
	for i := 0; i < t.n; i++ {
		jb := j >> uint(i) & 1
		nonstr := jb ^ (dbits >> uint(i) & 1)
		sel := (jb ^ (sbits >> uint(i) & 1)) & nonstr
		mag := bit & -nonstr
		j = (j + (mag ^ -sel) + sel) & mask
		kinds |= uint64(1+nonstr-2*sel) << shift
		bit <<= 1
		shift += 2
	}
	return PackedPath{src: int32(s), n: uint8(t.n), kinds: kinds}
}

// RouteSSDTPacked is RouteSSDT on the packed representation. It routes a
// message from s to d under the self-repairing SSDT scheme, mutating ns
// exactly like RouteSSDT when a blocked nonstraight link forces a state
// flip. Flipped stages are reported as a bitmask (bit i set = the stage-i
// switch on the path flipped) instead of a slice, so the steady state
// performs zero heap allocations; errors match RouteSSDT's cases.
func RouteSSDTPacked(p topology.Params, s, d int, ns *NetworkState, blk *blockage.Set) (PackedPath, uint64, error) {
	if err := checkEndpoints(p, s, d); err != nil {
		return PackedPath{}, 0, err
	}
	var kinds, flipped uint64
	mask := p.Size() - 1
	n := p.Stages()
	j, base, bit, shift := s, 0, 1, uint(0)
	for i := 0; i < n; i++ {
		// Branchless stage body (see FollowStatePacked); only the blockage
		// test branches, and it is predictable because blocked links are
		// the exception on the hot path.
		nonstr := (j ^ d) >> uint(i) & 1
		sel := (j>>uint(i)&1 ^ int(ns.st[base+j])) & nonstr
		code := 1 + nonstr - 2*sel
		if blk.Blocked(topology.Link{Stage: i, From: j, Kind: topology.LinkKind(code)}) {
			if nonstr == 0 {
				return PackedPath{}, 0, fmt.Errorf("core: SSDT cannot bypass straight link blockage %v at stage %d",
					topology.Link{Stage: i, From: j, Kind: topology.Straight}, i)
			}
			// Self-repair: flip the switch state and take the opposite
			// nonstraight link (Theorem 5.1). The direct write must keep
			// the per-stage uniformity tracking honest for the sliced
			// kernels, like NetworkState.Flip does.
			ns.st[base+j] = ns.st[base+j].Flip()
			ns.mix[i] = true
			sel ^= 1
			code = 2 - code
			if blk.Blocked(topology.Link{Stage: i, From: j, Kind: topology.LinkKind(code)}) {
				return PackedPath{}, 0, fmt.Errorf("core: SSDT cannot bypass double nonstraight blockage at switch %d∈S_%d", j, i)
			}
			flipped |= 1 << uint(i)
		}
		mag := bit & -nonstr
		j = (j + (mag ^ -sel) + sel) & mask
		kinds |= uint64(code) << shift
		base += mask + 1
		bit <<= 1
		shift += 2
	}
	return PackedPath{src: int32(s), n: uint8(n), kinds: kinds}, flipped, nil
}

// FollowStateBatch routes one message per destination into the
// caller-provided buffer: out[k] becomes the packed path from srcs[k] (or
// from k itself when srcs is nil — the permutation-routing shape) to
// dsts[k] under ns. It performs no heap allocations, so a caller that
// reuses out routes batches allocation-free.
//
// Since the results are per-lane independent, the batch is carved into
// 64-lane LaneBlocks and advanced by the bit-sliced FollowStateSliced
// kernel — including the remainder block when the batch is not a multiple
// of 64 — which is several times cheaper per route than per-lane
// FollowStatePacked calls while producing identical paths.
func FollowStateBatch(p topology.Params, ns *NetworkState, srcs, dsts []int, out []PackedPath) error {
	if srcs != nil && len(srcs) != len(dsts) {
		return fmt.Errorf("core: FollowStateBatch has %d sources for %d destinations", len(srcs), len(dsts))
	}
	if len(out) < len(dsts) {
		return fmt.Errorf("core: FollowStateBatch output buffer holds %d of %d paths", len(out), len(dsts))
	}
	var lb LaneBlock
	var ids [Lanes]int
	for off := 0; off < len(dsts); off += Lanes {
		end := off + Lanes
		if end > len(dsts) {
			end = len(dsts)
		}
		chunkSrcs := ids[:end-off]
		if srcs != nil {
			chunkSrcs = srcs[off:end]
		} else {
			for k := range chunkSrcs {
				chunkSrcs[k] = off + k
			}
		}
		if err := lb.LoadInts(p, chunkSrcs, dsts[off:end]); err != nil {
			return err
		}
		FollowStateSliced(p, ns, &lb)
		lb.PathsInto(out[off:off])
	}
	return nil
}
