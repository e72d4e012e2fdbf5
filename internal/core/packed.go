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
// PackedPath is the currency of the bit-sliced routing kernels (sliced.go,
// FollowStateBatch), of RerouteTag's walk and of the frontier walks in
// internal/paths; Unpack/PackPath convert to
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

// FollowStateBatch routes one message per destination into the
// caller-provided buffer: out[k] becomes the packed path from srcs[k] (or
// from k itself when srcs is nil — the permutation-routing shape) to
// dsts[k] under ns. It performs no heap allocations, so a caller that
// reuses out routes batches allocation-free.
//
// Since the results are per-lane independent, the batch is carved into
// 64-lane LaneBlocks and advanced by the bit-sliced FollowStateSliced
// kernel — including the remainder block when the batch is not a multiple
// of 64 — which is several times cheaper per route than per-lane scalar
// routing while producing identical paths.
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
