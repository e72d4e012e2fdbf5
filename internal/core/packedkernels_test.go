package core

import (
	"fmt"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// The scalar packed kernels: one route per call, written straight against
// PackedPath. Production code routes with the paper-faithful references
// (FollowState, Tag.Follow, RouteSSDT) and with the bit-sliced kernels
// that advance 64 routes per stage (sliced.go); these kernels live here as
// the sliced kernels' per-lane oracles and as benchmark subjects.
//
// They share two deviations from the reference loops, both exact: N is a
// power of two, so (j ± 2^i) mod N is (j ± 2^i)&(N-1) — a mask instead of
// topology.Params.Mod's runtime integer division — and the link kind is
// computed directly from bit i of j, tag bit t and the switch state
// (Lemma 2.1: straight iff j_i = t_i; otherwise the state-C link is +2^i
// from an even_i switch and -2^i from an odd_i one, and state C̄ flips
// the sign) instead of materializing LinkFor's Link. The differential
// suite in packed_test.go pins them to the references link-for-link.

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
