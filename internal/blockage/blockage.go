// Package blockage models faulty or busy links in an IADM network.
//
// The paper (Section 3) distinguishes three blockage situations affecting
// the output links of a switch on a routing path:
//
//   - a nonstraight link blockage: one of the +-2^i links is blocked;
//   - a straight link blockage: the straight link is blocked;
//   - a double nonstraight link blockage: both +-2^i links are blocked.
//
// A switch blockage (the switch itself is faulty or busy) "has the same
// effect as blocking all of the switch's input links and can be transformed
// into a link blockage problem accordingly"; BlockSwitch implements that
// transformation.
package blockage

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"iadm/internal/topology"
)

// Set is a set of blocked links of an IADM network of fixed size. The zero
// value is not usable; use NewSet.
//
// Membership is stored once, per (stage, kind), as a bitmask over switch
// indices (StageMask — bit j of word j/64 set iff the kind link leaving
// switch j at that stage is blocked), which also lets per-lane fallback
// code test a link with one shift instead of recomputing link indices.
// Block/Unblock keep a per-stage blocked-link count in sync with it
// (StageCount — the sliced routing kernels gate their lane-parallel fast
// path on a stage having zero blockages).
type Set struct {
	p          topology.Params
	count      int
	stageCount []int
	masks      []uint64 // 3*Stages() planes of maskWords words each
	maskWords  int      // words per plane: ceil(N/64)
}

// NewSet returns an empty blockage set for a network with the given
// parameters.
func NewSet(p topology.Params) *Set {
	words := (p.Size() + 63) / 64
	return &Set{
		p:          p,
		stageCount: make([]int, p.Stages()),
		masks:      make([]uint64, 3*p.Stages()*words),
		maskWords:  words,
	}
}

// Params returns the network parameters the set was built for.
func (s *Set) Params() topology.Params { return s.p }

// plane returns the start offset of the (stage, kind) mask plane in masks.
func (s *Set) plane(stage int, kind topology.LinkKind) int {
	return (stage*3 + int(kind)) * s.maskWords
}

// word returns the mask word holding the link's bit, and the bit.
func (s *Set) word(l topology.Link) (*uint64, uint64) {
	return &s.masks[s.plane(l.Stage, l.Kind)+int(uint(l.From)/64)], 1 << (uint(l.From) % 64)
}

// Block marks the link as blocked. Blocking an already blocked link is a
// no-op.
func (s *Set) Block(l topology.Link) {
	w, bit := s.word(l)
	if *w&bit == 0 {
		*w |= bit
		s.count++
		s.stageCount[l.Stage]++
	}
}

// Unblock clears the link's blocked mark.
func (s *Set) Unblock(l topology.Link) {
	w, bit := s.word(l)
	if *w&bit != 0 {
		*w &^= bit
		s.count--
		s.stageCount[l.Stage]--
	}
}

// Blocked reports whether the link is blocked.
func (s *Set) Blocked(l topology.Link) bool {
	return s.masks[s.plane(l.Stage, l.Kind)+int(uint(l.From)/64)]>>(uint(l.From)%64)&1 != 0
}

// Count returns the number of blocked links.
func (s *Set) Count() int { return s.count }

// StageCount returns the number of blocked links whose source switch is in
// stage i.
func (s *Set) StageCount(i int) int { return s.stageCount[i] }

// StageMask returns the blocked-switch bitmask for the kind links of stage
// i: bit j%64 of word j/64 is set iff the kind link leaving switch j is
// blocked. The returned slice aliases the set's storage and must not be
// modified; it is invalidated by the next mutation.
func (s *Set) StageMask(i int, kind topology.LinkKind) []uint64 {
	off := s.plane(i, kind)
	return s.masks[off : off+s.maskWords : off+s.maskWords]
}

// Clear removes all blockages.
func (s *Set) Clear() {
	for i := range s.stageCount {
		s.stageCount[i] = 0
	}
	for i := range s.masks {
		s.masks[i] = 0
	}
	s.count = 0
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{
		p:          s.p,
		count:      s.count,
		stageCount: make([]int, len(s.stageCount)),
		masks:      make([]uint64, len(s.masks)),
		maskWords:  s.maskWords,
	}
	copy(c.stageCount, s.stageCount)
	copy(c.masks, s.masks)
	return c
}

// Links returns the blocked links in deterministic (index) order.
func (s *Set) Links() []topology.Link {
	out := make([]topology.Link, 0, s.count)
	for i := 0; i < s.p.Stages(); i++ {
		minus, straight, plus := s.StageMask(i, topology.Minus), s.StageMask(i, topology.Straight), s.StageMask(i, topology.Plus)
		for w := range minus {
			// Link index order is switch-major, kind-minor: visit the
			// switches with any blocked link in order, then their kinds.
			for sw := minus[w] | straight[w] | plus[w]; sw != 0; sw &= sw - 1 {
				b := bits.TrailingZeros64(sw)
				j := w*64 + b
				for k, m := range [3]uint64{minus[w], straight[w], plus[w]} {
					if m>>uint(b)&1 != 0 {
						out = append(out, topology.Link{Stage: i, From: j, Kind: topology.LinkKind(k)})
					}
				}
			}
		}
	}
	return out
}

// String renders the set for diagnostics.
func (s *Set) String() string {
	links := s.Links()
	parts := make([]string, len(links))
	for i, l := range links {
		parts[i] = l.StringIn(s.p)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ValidateSwitch checks that sw names a switch whose blockage has an
// input-link transformation, without mutating the set. Switches in stage 0
// are network inputs with no modeled input links; blocking one is rejected
// because no link-level transformation exists for it.
func (s *Set) ValidateSwitch(sw topology.Switch) error {
	if sw.Stage == 0 {
		return fmt.Errorf("blockage: switch %v is a network input; its blockage cannot be expressed as link blockages", sw)
	}
	if sw.Stage < 1 || sw.Stage > s.p.Stages() || !s.p.ValidSwitch(sw.Index) {
		return fmt.Errorf("blockage: invalid switch %v", sw)
	}
	return nil
}

// BlockSwitch blocks all input links of the given switch, the paper's
// transformation of a switch blockage into link blockages. It returns how
// many of those links were newly blocked (already blocked inputs are
// no-ops), so callers can report the exact map change.
func (s *Set) BlockSwitch(sw topology.Switch) (int, error) {
	if err := s.ValidateSwitch(sw); err != nil {
		return 0, err
	}
	m := topology.IADM{Params: s.p}
	blocked := 0
	for _, l := range m.InLinks(sw.Stage-1, sw.Index) {
		if !s.Blocked(l) {
			s.Block(l)
			blocked++
		}
	}
	return blocked, nil
}

// DoubleNonstraight reports whether both nonstraight output links of switch
// j at stage i are blocked (the paper's "double nonstraight link blockage").
func (s *Set) DoubleNonstraight(i, j int) bool {
	return s.Blocked(topology.Link{Stage: i, From: j, Kind: topology.Plus}) &&
		s.Blocked(topology.Link{Stage: i, From: j, Kind: topology.Minus})
}

// Kind classifies the blockage situation of switch j at stage i with respect
// to its output links.
type Kind int

const (
	// None: no output link of the switch is blocked.
	None Kind = iota
	// NonstraightOnly: exactly one nonstraight output link is blocked (and
	// the straight link may or may not be — per the paper's footnote, a
	// straight and a nonstraight blockage never affect the same
	// source/destination pair, so the classification is per desired link).
	NonstraightOnly
	// StraightOnly: the straight output link is blocked.
	StraightOnly
	// DoubleNonstraight: both nonstraight output links are blocked.
	DoubleNonstraightKind
)

// RandomLinks blocks `count` distinct uniformly random links, drawn with the
// given PRNG. Already blocked links are skipped, so the final Count grows by
// exactly `count` (or until the network is exhausted).
func (s *Set) RandomLinks(rng *rand.Rand, count int) {
	total := 3 * s.p.Size() * s.p.Stages()
	free := make([]int, 0, total-s.count)
	for idx := 0; idx < total; idx++ {
		if !s.Blocked(topology.LinkFromIndex(s.p, idx)) {
			free = append(free, idx)
		}
	}
	if count > len(free) {
		count = len(free)
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, idx := range free[:count] {
		s.Block(topology.LinkFromIndex(s.p, idx))
	}
}

// RandomNonstraight blocks `count` distinct uniformly random nonstraight
// links (the blockage type the SSDT scheme and Section 6 reconfiguration
// tolerate).
func (s *Set) RandomNonstraight(rng *rand.Rand, count int) {
	var free []int
	m := topology.IADM{Params: s.p}
	m.Links(func(l topology.Link) bool {
		if l.Kind.Nonstraight() && !s.Blocked(l) {
			free = append(free, l.Index(s.p))
		}
		return true
	})
	if count > len(free) {
		count = len(free)
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, idx := range free[:count] {
		s.Block(topology.LinkFromIndex(s.p, idx))
	}
}

// SortLinks orders links by (stage, from, kind); used by tests and renderers
// that need deterministic output from arbitrary link slices.
func SortLinks(p topology.Params, links []topology.Link) {
	sort.Slice(links, func(a, b int) bool {
		return links[a].Index(p) < links[b].Index(p)
	})
}
