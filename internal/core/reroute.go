package core

import (
	"errors"
	"fmt"

	"iadm/internal/bitutil"
	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// ErrNoPath is returned (wrapped) by Backtrack and Reroute when the
// blockages eliminate every path between the source and the destination —
// the algorithms' FAIL outcome. Algorithm REROUTE is universal (Section 5):
// it returns ErrNoPath only when no blockage-free path exists.
var ErrNoPath = errors.New("no blockage-free path exists")

// Backtrack is the paper's algorithm BACKTRACK (Section 5). Given the
// current routing path, the stage q at which that path hits a straight-link
// blockage or a double-nonstraight-link blockage, and the TSDT tag that
// produced the path, it performs iterated backtracking and returns an
// updated tag whose path is blockage-free from stage 0 through stage q. It
// returns ErrNoPath (wrapped) if the blockage pattern leaves no path.
//
// The caller must ensure that path is the route tag produces, that the
// stage-q link of path is blocked, and that the blockage is not a simple
// single-nonstraight blockage (those are handled in O(1) by Corollary 4.1 /
// Tag.RerouteNonstraight; Reroute dispatches accordingly).
func Backtrack(blk *blockage.Set, path Path, q int, tag Tag) (Tag, error) {
	p := path.Params()
	d := uint64(tag.Destination())
	straightCase := path.Links[q].Kind == topology.Straight
	j := path.SwitchAt(q) // invariant: j is the switch at stage q on P

	// Step 1: backtrack on P for the nearest preceding nonstraight link.
	r, ok := path.NonstraightBefore(q)
	if !ok {
		return Tag{}, fmt.Errorf("core: Backtrack at stage %d: %w (no nonstraight link precedes the blockage; Theorems 3.3/3.4)", q, ErrNoPath)
	}

	// Step 2: linkfound = 0 for +2^r, 1 for -2^r. The rerouting diagonal
	// runs on the opposite side of the straight run: through switches
	// (j + sign*2^l), with sign = -1 for linkfound = 0 and +1 for
	// linkfound = 1.
	linkfound := 0
	sign := -1
	diagKind := topology.Minus
	if path.Links[r].Kind == topology.Minus {
		linkfound = 1
		sign = 1
		diagKind = topology.Plus
	}

	// Step 3 (Corollary 4.2): state bits r..q-1 select the diagonal.
	tag = tag.WithStateField(r, q-1, diagField(d, r, q-1, linkfound))

	for iter := 0; ; iter++ {
		jq := p.Mod(j + sign*(1<<uint(q))) // switch at stage q on the rerouting path
		dq := int(bitutil.Bit(d, q))

		if iter == 0 && straightCase {
			// Step 4a: the rerouting path exits stage q on a nonstraight
			// link of jq. Default to the link continuing the diagonal; fall
			// back to the opposite one; FAIL if both are blocked (both
			// pivots of stage q are then closed).
			var primary, secondary topology.Link
			var primaryBit, secondaryBit int
			if linkfound == 0 {
				primary = topology.Link{Stage: q, From: jq, Kind: topology.Minus}
				primaryBit = dq // Lemma A1.2(ii): -2^q needs state bit d_q
				secondary = topology.Link{Stage: q, From: jq, Kind: topology.Plus}
				secondaryBit = 1 - dq // Lemma A1.2(i): +2^q needs state bit d̄_q
			} else {
				primary = topology.Link{Stage: q, From: jq, Kind: topology.Plus}
				primaryBit = 1 - dq
				secondary = topology.Link{Stage: q, From: jq, Kind: topology.Minus}
				secondaryBit = dq
			}
			switch {
			case !blk.Blocked(primary):
				tag = tag.WithStateBit(q, primaryBit)
			case !blk.Blocked(secondary):
				tag = tag.WithStateBit(q, secondaryBit)
			default:
				return Tag{}, fmt.Errorf("core: Backtrack: both nonstraight links of %d∈S_%d blocked: %w", jq, q, ErrNoPath)
			}
		} else {
			// Step 4b: the rerouting path exits stage q on the straight link
			// of jq (bit q of jq equals d_q, so the straight link is taken
			// for any state bit). If it is blocked, both pivots of stage q
			// are closed.
			if blk.Blocked(topology.Link{Stage: q, From: jq, Kind: topology.Straight}) {
				return Tag{}, fmt.Errorf("core: Backtrack: straight link of %d∈S_%d blocked: %w", jq, q, ErrNoPath)
			}
		}

		// Step 5: the diagonal segment Q̂ through stages r+1..q-1 must be
		// clear; a blockage there closes/unreaches both pivots of its stage.
		for l := r + 1; l < q; l++ {
			dl := topology.Link{Stage: l, From: p.Mod(j + sign*(1<<uint(l))), Kind: diagKind}
			if blk.Blocked(dl) {
				return Tag{}, fmt.Errorf("core: Backtrack: diagonal link %v blocked: %w", dl, ErrNoPath)
			}
		}

		// Step 6: the flipped nonstraight link at stage r opens the
		// diagonal; if it is blocked, backtrack further.
		flipped := topology.Link{Stage: r, From: path.SwitchAt(r), Kind: path.Links[r].Kind.Opposite()}
		if !blk.Blocked(flipped) {
			return tag, nil
		}

		// Step 7: the switch at stage r on P is now the blocked switch.
		j = path.SwitchAt(r)
		q = r

		// Step 8: search backward again.
		r, ok = path.NonstraightBefore(q)
		if !ok {
			return Tag{}, fmt.Errorf("core: Backtrack at stage %d: %w (backtracking exhausted)", q, ErrNoPath)
		}

		// Step 9: every subsequently found nonstraight link must have the
		// same sign as the first; otherwise the pivots of stage q stay
		// unreachable (Figure 9 argument).
		wantKind := topology.Plus
		if linkfound == 1 {
			wantKind = topology.Minus
		}
		if path.Links[r].Kind != wantKind {
			return Tag{}, fmt.Errorf("core: Backtrack: sign reversal at stage %d: %w", r, ErrNoPath)
		}

		// Step 10 = step 3 for the new (r, q); continue at step 4b.
		tag = tag.WithStateField(r, q-1, diagField(d, r, q-1, linkfound))
	}
}

// diagField computes the Corollary 4.2 state-bit field for stages r..q-1:
// d_{r/q-1} when the found link is +2^r (linkfound = 0; the diagonal uses
// -2^l links needing state bits d_l), and its complement when the found
// link is -2^r (linkfound = 1; +2^l links need d̄_l).
func diagField(d uint64, r, qm1, linkfound int) uint64 {
	f := bitutil.Field(d, r, qm1)
	if linkfound == 1 {
		f = ^f & bitutil.Mask(0, qm1-r)
	}
	return f
}

// Reroute is the paper's algorithm REROUTE (Section 5): the universal
// rerouting algorithm. Starting from an initial TSDT tag (typically
// MustTag(p, d), all switches in state C), it repeatedly fixes the
// lowest-stage blockage on the current path — by Corollary 4.1 for a simple
// nonstraight blockage, by algorithm BACKTRACK for straight and double
// nonstraight blockages — until the path is blockage-free or FAIL.
//
// On success it returns the rerouting tag and its (blockage-free) path. It
// returns an error wrapping ErrNoPath exactly when no blockage-free path
// from s to the tag's destination exists.
func Reroute(p topology.Params, blk *blockage.Set, s int, tag Tag) (Tag, Path, error) {
	if err := checkEndpoints(p, s, tag.Destination()); err != nil {
		return Tag{}, Path{}, err
	}
	// Each iteration clears all blockages up to a strictly higher stage, so
	// n iterations always suffice.
	for iter := 0; iter <= p.Stages(); iter++ {
		path := tag.Follow(p, s)
		i, hit := path.FirstBlocked(blk)
		if !hit {
			return tag, path, nil
		}
		desired := path.Links[i]
		if desired.Kind.Nonstraight() &&
			!blk.Blocked(topology.Link{Stage: i, From: desired.From, Kind: desired.Kind.Opposite()}) {
			// Step 2: Corollary 4.1, O(1) state-bit complement.
			tag = tag.RerouteNonstraight(i)
			continue
		}
		// Step 3: straight or double-nonstraight blockage.
		var err error
		tag, err = Backtrack(blk, path, i, tag)
		if err != nil {
			return Tag{}, Path{}, err
		}
	}
	return Tag{}, Path{}, fmt.Errorf("core: Reroute did not converge in %d iterations (internal error)", p.Stages()+1)
}

// RerouteTag returns the tag Reroute(p, blk, s, MustTag(p, d)) returns, and
// an error of the same class, in one allocation-free walk. It follows the
// all-C tag from s in packed arithmetic (a branchless stage body that
// selects the link kind from bits, as the sliced kernels do), and at a nonstraight link that is blocked while its
// opposite is free it complements state bit i and takes the opposite link
// (Corollary 4.1). REROUTE fixes the lowest-stage blockage first, so on a
// walk that meets only such single-nonstraight blockages it makes exactly
// these flips. The first straight or double-nonstraight blockage needs
// BACKTRACK, and the walk hands the pair to Reroute itself.
func RerouteTag(p topology.Params, blk *blockage.Set, s, d int) (Tag, error) {
	if err := checkEndpoints(p, s, d); err != nil {
		return Tag{}, err
	}
	n := p.Stages()
	mask := p.Size() - 1
	var state uint64
	j, bit := s, 1
	for i := 0; i < n; i++ {
		jb := j >> uint(i) & 1
		nonstr := jb ^ (d >> uint(i) & 1)
		sel := (jb ^ int(state>>uint(i)&1)) & nonstr
		code := 1 + nonstr - 2*sel
		if blk.Blocked(topology.Link{Stage: i, From: j, Kind: topology.LinkKind(code)}) {
			if nonstr == 0 || blk.Blocked(topology.Link{Stage: i, From: j, Kind: topology.LinkKind(2 - code)}) {
				tag, _, err := Reroute(p, blk, s, MustTag(p, d))
				return tag, err
			}
			state |= 1 << uint(i)
			sel ^= 1
		}
		mag := bit & -nonstr
		j = (j + (mag ^ -sel) + sel) & mask
		bit <<= 1
	}
	return Tag{n: n, bits: uint64(d) | state<<uint(n)}, nil
}
