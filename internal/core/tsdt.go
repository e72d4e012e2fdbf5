package core

import (
	"fmt"

	"iadm/internal/bitutil"
	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// Tag is a Two-bit State-based Destination Tag (TSDT, Section 4): 2n bits,
// where bit i (0 <= i < n) is the destination bit b_i = d_i and bit n+i is
// the state bit b_{n+i} selecting the state of the stage-i switch on the
// path (0 = state C, 1 = state C̄).
//
// Link selection (Lemma A1.1): at switch j of stage i the destination bit
// decides straight vs nonstraight (straight iff b_i = j_i), and if
// nonstraight, the state bit decides the sign. Concretely, for an even_i
// switch b_i b_{n+i} = 00, 01 are straight, 10 is +2^i, 11 is -2^i; for an
// odd_i switch 10, 11 are straight, 01 is +2^i, 00 is -2^i.
type Tag struct {
	n    int
	bits uint64
}

// NewTag builds the TSDT routing tag for destination d with all state bits
// zero (every switch in state C, the default under which the IADM network
// emulates the embedded ICube network).
func NewTag(p topology.Params, d int) (Tag, error) {
	if !p.ValidSwitch(d) {
		return Tag{}, fmt.Errorf("core: destination %d out of range 0..%d", d, p.Size()-1)
	}
	if 2*p.Stages() > 64 {
		return Tag{}, fmt.Errorf("core: N = %d too large for a 64-bit tag", p.Size())
	}
	return Tag{n: p.Stages(), bits: uint64(d)}, nil
}

// MustTag is NewTag but panics on error.
func MustTag(p topology.Params, d int) Tag {
	t, err := NewTag(p, d)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseTag parses the paper's LSB-first 2n-bit rendering, e.g. "000110" for
// n = 3 (destination bits first, then state bits).
func ParseTag(n int, s string) (Tag, error) {
	if len(s) != 2*n {
		return Tag{}, fmt.Errorf("core: tag %q has %d bits, want %d", s, len(s), 2*n)
	}
	v, err := bitutil.Parse(s)
	if err != nil {
		return Tag{}, err
	}
	return Tag{n: n, bits: v}, nil
}

// Stages returns n, the number of stages the tag covers.
func (t Tag) Stages() int { return t.n }

// Destination returns the destination address encoded in bits 0..n-1.
func (t Tag) Destination() int { return int(bitutil.Field(t.bits, 0, t.n-1)) }

// DestBit returns destination bit b_i.
func (t Tag) DestBit(i int) int { return int(bitutil.Bit(t.bits, i)) }

// StateBit returns state bit b_{n+i}.
func (t Tag) StateBit(i int) int { return int(bitutil.Bit(t.bits, t.n+i)) }

// StateAt returns the switch state selected for stage i.
func (t Tag) StateAt(i int) State {
	if t.StateBit(i) == 0 {
		return StateC
	}
	return StateCBar
}

// WithStateBit returns a copy of the tag with state bit b_{n+i} set to b.
func (t Tag) WithStateBit(i, b int) Tag {
	t.bits = bitutil.SetBit(t.bits, t.n+i, uint64(b))
	return t
}

// FlipStateBit returns a copy of the tag with state bit b_{n+i}
// complemented. This is the entire rerouting computation of Corollary 4.1.
func (t Tag) FlipStateBit(i int) Tag {
	t.bits = bitutil.FlipBit(t.bits, t.n+i)
	return t
}

// WithStateField returns a copy of the tag whose state bits for stages
// p..q (inclusive) are replaced by the low bits of f (f's bit 0 lands at
// stage p). It implements the b'_{n+p/n+q} substitutions of Corollary 4.2
// and steps 3/10 of algorithm BACKTRACK.
func (t Tag) WithStateField(p, q int, f uint64) Tag {
	t.bits = bitutil.ReplaceField(t.bits, t.n+p, t.n+q, f)
	return t
}

// StateBits returns the n state bits as a value (bit i = state bit of
// stage i).
func (t Tag) StateBits() uint64 { return bitutil.Field(t.bits, t.n, 2*t.n-1) }

// TagFromState reassembles a TSDT tag from its destination and state-bit
// field — the decode half of compact stores that persist only the state
// bits because the destination is the key. The caller must pass a valid
// destination for p; no validation is performed on this hot path.
func TagFromState(p topology.Params, dst int, state uint64) Tag {
	n := p.Stages()
	return Tag{n: n, bits: uint64(dst) | state<<uint(n)}
}

// String renders the tag LSB-first as in the paper: destination bits
// b_0..b_{n-1} followed by state bits b_n..b_{2n-1}.
func (t Tag) String() string { return bitutil.String(t.bits, 2*t.n) }

// LinkAt decodes the output link switch j takes at stage i under this tag
// (Lemma A1.1).
func (t Tag) LinkAt(i, j int) topology.Link {
	return LinkFor(i, j, t.DestBit(i), t.StateAt(i))
}

// Follow routes a message from source s according to the tag, ignoring
// blockages, and returns the full path. By Theorem 3.1 the path always ends
// at t.Destination().
func (t Tag) Follow(p topology.Params, s int) Path {
	return t.FollowInto(p, s, make([]topology.Link, 0, t.n))
}

// FollowInto is Follow writing the links into the caller-provided buffer
// (reused from links[:0]), so repeated follows allocate nothing. The
// returned Path aliases the buffer.
func (t Tag) FollowInto(p topology.Params, s int, links []topology.Link) Path {
	links = links[:0]
	j := s
	for i := 0; i < t.n; i++ {
		l := t.LinkAt(i, j)
		links = append(links, l)
		j = l.To(p)
	}
	return Path{p: p, Source: s, Links: links}
}

// RerouteNonstraight applies Corollary 4.1: given that the (nonstraight)
// link at stage i of the tag's current path is blocked, it returns the
// rerouting tag that takes the oppositely signed nonstraight link instead,
// obtained by complementing state bit b_{n+i}. It is the caller's
// responsibility to have verified that the stage-i link is nonstraight
// (Theorem 3.2: state changes cannot divert a straight link).
func (t Tag) RerouteNonstraight(i int) Tag { return t.FlipStateBit(i) }

// RerouteBacktrack applies Corollary 4.2: given the tag's current path and
// a straight or double-nonstraight blockage at stage q of that path, it
// backtracks to the largest stage r < q whose path link is nonstraight and
// returns the rerouting tag whose state bits r..q-1 divert the path along
// the oppositely signed diagonal. State bits q..n-1 are left unchanged
// (the corollary leaves them arbitrary).
//
// It returns an error if stages 0..q-1 of the path are all straight, which
// by Theorems 3.3/3.4 means no alternate path exists.
func (t Tag) RerouteBacktrack(path Path, q int) (Tag, error) {
	r, ok := path.NonstraightBefore(q)
	if !ok {
		return Tag{}, fmt.Errorf("core: no nonstraight link before stage %d on %v; rerouting impossible (Theorems 3.3/3.4)", q, path)
	}
	d := uint64(t.Destination())
	field := bitutil.Field(d, r, q-1)
	if path.Links[r].Kind == topology.Minus {
		// Corollary 4.2(i): found -2^r; the rerouting diagonal climbs with
		// +2^l links, which by Lemma A1.2(i) require state bits d̄_l.
		field = ^field & bitutil.Mask(0, q-1-r)
	}
	// Corollary 4.2(ii): found +2^r; the diagonal descends with -2^l links,
	// requiring state bits d_l (Lemma A1.2(ii)) — field used as is.
	return t.WithStateField(r, q-1, field), nil
}

// FollowBlocked routes from s under the tag until it either completes or
// hits a blocked link; it returns the path prefix walked so far (full path
// on success), the stage of the blocked link, and whether a blockage was
// hit.
func (t Tag) FollowBlocked(p topology.Params, s int, blk *blockage.Set) (Path, int, bool) {
	path := t.Follow(p, s)
	if stage, hit := path.FirstBlocked(blk); hit {
		return path, stage, true
	}
	return path, -1, false
}
