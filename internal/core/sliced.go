package core

import (
	"fmt"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// This file implements bit-sliced routing kernels: 64 independent requests
// ("lanes") advance through the network together, one word-wide operation
// per stage instead of one loop iteration per lane.
//
// Representation. The packed kernels (packed.go) keep one request per
// machine word and walk its bits; the sliced kernels transpose that layout.
// A LaneBlock holds, for each bit position b, one uint64 plane whose bit l
// is bit b of lane l's value: d[b] for destination bits, s[b] for TSDT
// state bits, j[b] for the current switch label. transpose64 is the codec
// between the two layouts.
//
// Stage step. At stage i, the packed stage body computes per lane
//
//	nonstr = j_i ^ d_i
//	sel    = (j_i ^ state) & nonstr   (1 iff the Minus link is taken)
//	j      = (j ± 2^i) mod N          (for nonstraight lanes)
//
// All of it is bitwise on single bits except the ±2^i, so on planes the
// stage is: nonstr and sel come from the stage-i planes in three ops,
// bit i of every lane becomes d_i (Lemma 2.1: every stage sets its own
// bit), and the ±2^i carries/borrows ripple up the higher planes as a
// textbook carry-save adder — `plus` lanes carry while bit b was 1,
// `minus` lanes borrow while bit b was 0, and a carry or borrow falling
// off plane n-1 is exactly the mod-N wraparound. Since a lane is never
// both plus and minus, one loop handles both masks. The ripple exits as
// soon as both masks are empty, so the expected cost per stage is a small
// constant number of word ops for all 64 lanes, with no per-lane branching.
//
// State gather. FollowState and SSDT read the switch state st[i][j] — a
// data-dependent gather the plane algebra cannot express. Two regimes:
//
//   - While a stage is uniform (NetworkState.StageUniform — the serving
//     steady state, where nobody flips switches) the gather is a broadcast:
//     the state plane is 0 (all C) or ^0 (all C̄), and the stage runs at
//     full plane speed. For SSDT the stage must also have zero blocked
//     links (blockage.Set.StageCount), since a repair flip would make the
//     state non-uniform mid-stage.
//   - At the first stage that is mixed (or blocked, for SSDT) the kernel
//     materializes per-lane labels from the j planes (one transpose) and
//     finishes in scalar mode — per-lane packed-style arithmetic that
//     still accumulates nonstr/sel into the planes so the shared output
//     path below applies. Correct for every state, fast for the common one.
//
// SSDT parity. RouteSSDT mutates ns (repair flips), so "route lanes
// 0..63 one after another" is the semantic the sliced kernel must
// reproduce bit-for-bit. Processing stage-by-stage with ascending lane
// order inside a stage is exactly equivalent: a repair flip at stage i
// only changes stage-i state, which sequential lane k+1 reads after lane
// k's flip in both orders, and stages are otherwise read-only.
//
// Output. Stage i's link kind has the 2-bit code 1+nonstr-2*sel, i.e. code
// bit 0 is ^nonstr and code bit 1 is nonstr&^sel. Writing those 2n planes
// as rows of a 64x64 matrix and transposing once yields, per lane, the
// finished PackedPath kinds word — no per-stage untransposing.

// Lanes is the number of requests a LaneBlock advances per word-wide
// operation: one lane per bit of a uint64.
const Lanes = 64

// maxSlicedStages bounds the per-bit plane arrays. topology caps N at
// 2^30, so n <= 30 planes always suffice.
const maxSlicedStages = 30

// LaneBlock is a block of up to 64 transposed routing requests plus the
// scratch the sliced kernels route them with. The zero value is ready to
// use; load it with LoadInts or LoadTags, run one kernel, then read the
// results out with PathsInto and the mask accessors. A block is reusable
// (loading overwrites all prior results) but not safe for concurrent use.
type LaneBlock struct {
	n     int    // stages, from the Params the block was loaded with
	count int    // active lanes, 1..Lanes
	amask uint64 // low `count` bits set

	srcs [Lanes]int32 // per-lane source, for PathsInto
	dsts [Lanes]int32 // per-lane destination, for the scalar fallback
	js   [Lanes]int32 // per-lane current label, maintained in scalar mode

	// fromTags marks a block loaded by LoadTags, which skips the dsts/js
	// scalar-fallback state (RouteTSDTSliced never leaves plane mode); the
	// state-reading kernels reject such a block instead of consuming stale
	// labels.
	fromTags bool

	d [maxSlicedStages]uint64 // destination bit planes
	s [maxSlicedStages]uint64 // TSDT state bit planes
	j [maxSlicedStages]uint64 // current-label bit planes

	// Per-stage result planes: bit l of nonstr[i] set iff lane l took a
	// nonstraight link at stage i; sel[i] iff it took the Minus link.
	nonstr [maxSlicedStages]uint64
	sel    [maxSlicedStages]uint64

	errMask     uint64        // lanes whose route failed (SSDT blockage errors)
	blockedMask uint64        // lanes whose preferred link was blocked at some stage
	flipped     [Lanes]uint64 // per-lane SSDT repair-flip stage masks

	scratch [Lanes]uint64 // transpose staging
}

// Count returns the number of active lanes loaded into the block.
func (lb *LaneBlock) Count() int { return lb.count }

// ErrMask returns the lane bitmask of failed routes after RouteSSDTSliced:
// bit l set means lane l hit a straight or double-nonstraight blockage and
// has no path (its PathsInto slot is the zero PackedPath).
func (lb *LaneBlock) ErrMask() uint64 { return lb.errMask }

// BlockedMask returns the lane bitmask of routes whose preferred link was
// blocked at some stage during RouteSSDTSliced — the lanes that attempted
// a repair, whether or not it succeeded. It is a superset of ErrMask.
func (lb *LaneBlock) BlockedMask() uint64 { return lb.blockedMask }

// Flipped returns the stage bitmask of repair flips lane performed during
// RouteSSDTSliced (bit i set = the stage-i switch on the path flipped),
// matching the stages RouteSSDT reports in SSDTResult.Flipped; 0 for
// failed lanes.
func (lb *LaneBlock) Flipped(lane int) uint64 { return lb.flipped[lane] }

// load resets the block for count lanes of an n-stage network.
func (lb *LaneBlock) load(p topology.Params, count int) error {
	if count < 1 || count > Lanes {
		return fmt.Errorf("core: LaneBlock holds 1..%d lanes, got %d", Lanes, count)
	}
	lb.n = p.Stages()
	lb.count = count
	lb.amask = ^uint64(0) >> uint(Lanes-count)
	lb.errMask = 0
	lb.blockedMask = 0
	for l := range lb.flipped {
		lb.flipped[l] = 0
	}
	return nil
}

// foldHalf folds the 64 per-lane rows in scratch — each known to fit 32
// bits — into the dual 32x32 layout transposeHalf consumes: lane k+32's row
// moves into the high half of word k. After transposeHalf, word b then holds
// exactly plane b across all 64 lanes (lanes 0..31 in its low half, lanes
// 32..63 in its high half — i.e. the same word transpose64 would produce).
func (lb *LaneBlock) foldHalf() *[32]uint64 {
	h := (*[32]uint64)(lb.scratch[:32])
	for k := 0; k < 32; k++ {
		h[k] |= lb.scratch[k+32] << 32
	}
	return h
}

// LoadInts loads a batch of (source, destination) pairs, the input shape of
// FollowStateSliced: lane l routes srcs[l] -> dsts[l]. A nil srcs means
// lane l routes from switch l (the permutation-routing shape). Inactive
// lanes (len(dsts) < Lanes) route 0 -> 0 and are excluded from results.
func (lb *LaneBlock) LoadInts(p topology.Params, srcs, dsts []int) error {
	if srcs != nil && len(srcs) != len(dsts) {
		return fmt.Errorf("core: LaneBlock has %d sources for %d destinations", len(srcs), len(dsts))
	}
	if err := lb.load(p, len(dsts)); err != nil {
		return err
	}
	lb.fromTags = false
	n := lb.n
	for l, d := range dsts {
		s := l
		if srcs != nil {
			s = srcs[l]
		}
		if err := checkEndpoints(p, s, d); err != nil {
			return err
		}
		lb.srcs[l] = int32(s)
		lb.dsts[l] = int32(d)
		lb.js[l] = int32(s)
		// One row carries both words: destination in bits 0..n-1, source
		// in bits n..2n-1 (2n <= 60), so a single transpose yields every
		// input plane.
		lb.scratch[l] = uint64(d) | uint64(s)<<uint(n)
	}
	for l := len(dsts); l < Lanes; l++ {
		lb.srcs[l], lb.dsts[l], lb.js[l] = 0, 0, 0
		lb.scratch[l] = 0
	}
	if 2*n <= 32 {
		h := lb.foldHalf()
		transposeHalf(h)
		copy(lb.d[:n], h[:n])
		copy(lb.j[:n], h[n:2*n])
	} else {
		transpose64(&lb.scratch)
		copy(lb.d[:n], lb.scratch[:n])
		copy(lb.j[:n], lb.scratch[n:2*n])
	}
	for b := 0; b < n; b++ {
		lb.s[b] = 0
	}
	return nil
}

// LoadTags loads a batch of (source, TSDT tag) pairs, the input shape of
// RouteTSDTSliced: lane l follows tags[l] from srcs[l]. Every tag must
// cover p's stage count. Inactive lanes follow the zero tag from switch 0.
//
// Unlike LoadInts it does not populate the scalar-fallback state (dsts/js):
// TSDT routing never reads per-switch network state, so RouteTSDTSliced runs
// plane-only, and the state-reading kernels reject a tag-loaded block.
func (lb *LaneBlock) LoadTags(p topology.Params, srcs []int, tags []Tag) error {
	if len(srcs) != len(tags) {
		return fmt.Errorf("core: LaneBlock has %d sources for %d tags", len(srcs), len(tags))
	}
	if err := lb.load(p, len(tags)); err != nil {
		return err
	}
	lb.fromTags = true
	n := lb.n
	// Tag bits already stack destination (0..n-1) over state (n..2n-1).
	// Stack the source on top whenever the tripled row still fits whichever
	// transpose the 2n-bit tag row needs (half for 3n <= 32, full for
	// 2n > 32 and 3n <= 64); otherwise the sources ride a second transpose.
	packSrc := 3*n <= 32 || (2*n > 32 && 3*n <= 64)
	for l, t := range tags {
		if t.n != n {
			return fmt.Errorf("core: lane %d tag covers %d stages, want %d", l, t.n, n)
		}
		s := srcs[l]
		if !p.ValidSwitch(s) {
			return fmt.Errorf("core: source %d out of range 0..%d", s, p.Size()-1)
		}
		lb.srcs[l] = int32(s)
		row := t.bits
		if packSrc {
			row |= uint64(s) << uint(2*n)
		}
		lb.scratch[l] = row
	}
	for l := len(tags); l < Lanes; l++ {
		lb.srcs[l] = 0
		lb.scratch[l] = 0
	}
	if 2*n <= 32 {
		h := lb.foldHalf()
		transposeHalf(h)
		copy(lb.d[:n], h[:n])
		copy(lb.s[:n], h[n:2*n])
		if packSrc {
			copy(lb.j[:n], h[2*n:3*n])
			return nil
		}
		// 11..16 stages: the tag row fits a half word but tag+source does
		// not, so the sources take a second half transpose.
		for l := range tags {
			lb.scratch[l] = uint64(srcs[l])
		}
		for l := len(tags); l < Lanes; l++ {
			lb.scratch[l] = 0
		}
		transposeHalf(lb.foldHalf())
		copy(lb.j[:n], lb.scratch[:n])
		return nil
	}
	transpose64(&lb.scratch)
	copy(lb.d[:n], lb.scratch[:n])
	copy(lb.s[:n], lb.scratch[n:2*n])
	if packSrc {
		copy(lb.j[:n], lb.scratch[2*n:3*n])
		return nil
	}
	// Huge-N fallback (n > 21): a second transpose for the sources.
	for l := range tags {
		lb.scratch[l] = uint64(srcs[l])
	}
	for l := len(tags); l < Lanes; l++ {
		lb.scratch[l] = 0
	}
	transpose64(&lb.scratch)
	copy(lb.j[:n], lb.scratch[:n])
	return nil
}

// planeStage advances every lane through stage i at full plane speed. st is
// the broadcast state plane: bit l holds the state bit lane l's switch
// routes with (all equal for FollowState/SSDT fast paths, per-lane tag bits
// for TSDT).
func (lb *LaneBlock) planeStage(i int, st uint64) {
	jb := lb.j[i]
	nonstr := jb ^ lb.d[i]
	sel := (jb ^ st) & nonstr
	lb.nonstr[i] = nonstr
	lb.sel[i] = sel
	// Lemma 2.1: stage i sets bit i of every label to d_i...
	lb.j[i] = lb.d[i]
	// ...and the nonstraight ±2^i propagates into the higher bits: plus
	// lanes carry while the old bit was 1, minus lanes borrow while it
	// was 0. The masks are lane-disjoint, so one ripple serves both, and
	// overflow past plane n-1 is the mod-N wrap.
	carry := (nonstr &^ sel) & jb
	borrow := (nonstr & sel) &^ jb
	for b := i + 1; b < lb.n && carry|borrow != 0; b++ {
		old := lb.j[b]
		lb.j[b] = old ^ carry ^ borrow
		carry &= old
		borrow &^= old
	}
}

// materialize switches the block to scalar mode at stage i: it recovers
// every lane's current switch label from the j planes into js. Labels
// equal sources until the first stage runs, so only i > 0 needs the
// transpose.
func (lb *LaneBlock) materialize(i int) {
	if i == 0 {
		return // js still holds the sources
	}
	// Labels are n <= 30 bits, so the half transpose always suffices: lane
	// l's label lands in the low half of word l, lane l+32's in the high.
	n := lb.n
	h := (*[32]uint64)(lb.scratch[:32])
	copy(h[:n], lb.j[:n])
	for b := n; b < 32; b++ {
		h[b] = 0
	}
	transposeHalf(h)
	lo := lb.count
	if lo > 32 {
		lo = 32
	}
	for l := 0; l < lo; l++ {
		lb.js[l] = int32(h[l] & 0xFFFFFFFF)
	}
	for l := 32; l < lb.count; l++ {
		lb.js[l] = int32(h[l-32] >> 32)
	}
}

// scalarFollowStage advances the active lanes through stage i one at a
// time, reading per-switch states (the mixed-state fallback). The results
// still land in the stage's nonstr/sel planes so PathsInto works uniformly.
func (lb *LaneBlock) scalarFollowStage(p topology.Params, ns *NetworkState, i int) {
	mask := p.Size() - 1
	base := i * p.Size()
	var nonstrP, selP uint64
	for l := 0; l < lb.count; l++ {
		j := int(lb.js[l])
		nonstr := (j ^ int(lb.dsts[l])) >> uint(i) & 1
		sel := (j>>uint(i)&1 ^ int(ns.st[base+j])) & nonstr
		mag := (1 << uint(i)) & -nonstr
		lb.js[l] = int32((j + (mag ^ -sel) + sel) & mask)
		nonstrP |= uint64(nonstr) << uint(l)
		selP |= uint64(sel) << uint(l)
	}
	lb.nonstr[i] = nonstrP
	lb.sel[i] = selP
}

// FollowStateSliced routes every loaded lane (LoadInts) under ns, the
// sliced counterpart of per-lane FollowState calls. Uniform stages
// run at plane speed; the first mixed stage drops the block into the
// scalar fallback for the remaining stages. No errors are possible beyond
// what LoadInts validated, and no allocations are performed.
func FollowStateSliced(p topology.Params, ns *NetworkState, lb *LaneBlock) {
	if lb.n != p.Stages() {
		panic("core: FollowStateSliced params mismatch with loaded LaneBlock")
	}
	if lb.fromTags {
		panic("core: FollowStateSliced needs a LoadInts block, not LoadTags")
	}
	scalar := false
	for i := 0; i < lb.n; i++ {
		if !scalar {
			if st, ok := ns.StageUniform(i); ok {
				lb.planeStage(i, -uint64(st))
				continue
			}
			lb.materialize(i)
			scalar = true
		}
		lb.scalarFollowStage(p, ns, i)
	}
}

// RouteTSDTSliced follows every loaded lane's TSDT tag (LoadTags), the
// sliced counterpart of per-lane Tag.Follow calls. TSDT tags carry
// their own state bits, so every stage runs at plane speed regardless of
// network state, with no allocations and no fallback.
func RouteTSDTSliced(p topology.Params, lb *LaneBlock) {
	if lb.n != p.Stages() {
		panic("core: RouteTSDTSliced params mismatch with loaded LaneBlock")
	}
	for i := 0; i < lb.n; i++ {
		lb.planeStage(i, lb.s[i])
	}
}

// scalarSSDTStage advances the live lanes through stage i with the full
// SSDT repair semantics, in ascending lane order (= sequential parity; see
// the file comment). dead accumulates lanes that hit an unroutable
// blockage; they stop participating, exactly like RouteSSDT's early
// error return.
func (lb *LaneBlock) scalarSSDTStage(p topology.Params, ns *NetworkState, blk *blockage.Set, i int, dead *uint64) {
	mask := p.Size() - 1
	base := i * p.Size()
	mMinus := blk.StageMask(i, topology.Minus)
	mStraight := blk.StageMask(i, topology.Straight)
	mPlus := blk.StageMask(i, topology.Plus)
	blocked := func(code, j int) bool {
		m := mStraight
		switch topology.LinkKind(code) {
		case topology.Minus:
			m = mMinus
		case topology.Plus:
			m = mPlus
		}
		return m[j>>6]>>(uint(j)&63)&1 == 1
	}
	var nonstrP, selP uint64
	for l := 0; l < lb.count; l++ {
		if *dead>>uint(l)&1 == 1 {
			continue
		}
		j := int(lb.js[l])
		nonstr := (j ^ int(lb.dsts[l])) >> uint(i) & 1
		sel := (j>>uint(i)&1 ^ int(ns.st[base+j])) & nonstr
		code := 1 + nonstr - 2*sel
		if blocked(code, j) {
			lb.blockedMask |= 1 << uint(l)
			if nonstr == 0 {
				// Straight blockage: no state change can divert a straight
				// link (Theorem 3.2).
				*dead |= 1 << uint(l)
				continue
			}
			// Self-repair: flip the switch and take the opposite
			// nonstraight link (Theorem 5.1). The flip persists even if
			// the opposite link is also blocked, matching RouteSSDT.
			ns.st[base+j] = ns.st[base+j].Flip()
			ns.mix[i] = true
			sel ^= 1
			code = 2 - code
			if blocked(code, j) {
				*dead |= 1 << uint(l)
				continue
			}
			lb.flipped[l] |= 1 << uint(i)
		}
		mag := (1 << uint(i)) & -nonstr
		lb.js[l] = int32((j + (mag ^ -sel) + sel) & mask)
		nonstrP |= uint64(nonstr) << uint(l)
		selP |= uint64(sel) << uint(l)
	}
	lb.nonstr[i] = nonstrP
	lb.sel[i] = selP
}

// RouteSSDTSliced routes every loaded lane (LoadInts) under the
// self-repairing SSDT scheme, the sliced counterpart of calling
// RouteSSDT on lanes 0, 1, .., count-1 in order — including the
// repair flips it writes into ns, which are bit-identical to that
// sequential loop's. Stages that are uniform and blockage-free run at
// plane speed (they cannot need repair); the first stage that is mixed or
// carries any blockage drops the block into the scalar fallback.
//
// It returns the error bitmask (also available as ErrMask): bit l set
// means lane l hit a straight or double-nonstraight blockage, carries no
// path, and reports Flipped(l) == 0, exactly like RouteSSDT's error
// return. BlockedMask reports every lane whose preferred link was blocked,
// repaired or not.
func RouteSSDTSliced(p topology.Params, ns *NetworkState, blk *blockage.Set, lb *LaneBlock) uint64 {
	if lb.n != p.Stages() {
		panic("core: RouteSSDTSliced params mismatch with loaded LaneBlock")
	}
	if lb.fromTags {
		panic("core: RouteSSDTSliced needs a LoadInts block, not LoadTags")
	}
	scalar := false
	var dead uint64
	for i := 0; i < lb.n; i++ {
		if !scalar {
			st, ok := ns.StageUniform(i)
			if ok && blk.StageCount(i) == 0 {
				lb.planeStage(i, -uint64(st))
				continue
			}
			lb.materialize(i)
			scalar = true
		}
		lb.scalarSSDTStage(p, ns, blk, i, &dead)
	}
	lb.errMask = dead
	for l := 0; l < lb.count; l++ {
		if dead>>uint(l)&1 == 1 {
			lb.flipped[l] = 0
		}
	}
	return dead
}

// PathsInto appends one PackedPath per active lane to out and returns the
// extended slice (appending into a pre-sized out[k:k] buffer keeps the
// call allocation-free). Lanes in ErrMask append the zero PackedPath,
// matching the packed kernels' error results. Call it after one of the
// sliced kernels has run on the current load.
func (lb *LaneBlock) PathsInto(out []PackedPath) []PackedPath {
	n := lb.n
	// One more transpose turns the per-stage result planes into per-lane
	// kinds words: stage i's 2-bit code is 1+nonstr-2*sel, so code bit 0
	// is ^nonstr and code bit 1 is nonstr&^sel; laying those out as rows
	// 2i and 2i+1 makes column l the finished kinds word of lane l.
	if 2*n <= 32 {
		// Kinds words fit 32 bits, so the half transpose does: lane l's
		// kinds land in the low half of word l, lane l+32's in the high.
		h := (*[32]uint64)(lb.scratch[:32])
		for i := 0; i < n; i++ {
			h[2*i] = ^lb.nonstr[i]
			h[2*i+1] = lb.nonstr[i] &^ lb.sel[i]
		}
		for b := 2 * n; b < 32; b++ {
			h[b] = 0
		}
		transposeHalf(h)
		if lb.errMask == 0 {
			lo := lb.count
			if lo > 32 {
				lo = 32
			}
			for l := 0; l < lo; l++ {
				out = append(out, PackedPath{src: lb.srcs[l], n: uint8(n), kinds: h[l] & 0xFFFFFFFF})
			}
			for l := 32; l < lb.count; l++ {
				out = append(out, PackedPath{src: lb.srcs[l], n: uint8(n), kinds: h[l-32] >> 32})
			}
			return out
		}
		for l := 0; l < lb.count; l++ {
			if lb.errMask>>uint(l)&1 == 1 {
				out = append(out, PackedPath{})
				continue
			}
			kinds := h[l&31] >> (uint(l>>5) * 32) & 0xFFFFFFFF
			out = append(out, PackedPath{src: lb.srcs[l], n: uint8(n), kinds: kinds})
		}
		return out
	}
	for b := range lb.scratch {
		lb.scratch[b] = 0
	}
	for i := 0; i < n; i++ {
		lb.scratch[2*i] = ^lb.nonstr[i]
		lb.scratch[2*i+1] = lb.nonstr[i] &^ lb.sel[i]
	}
	transpose64(&lb.scratch)
	for l := 0; l < lb.count; l++ {
		if lb.errMask>>uint(l)&1 == 1 {
			out = append(out, PackedPath{})
			continue
		}
		out = append(out, PackedPath{src: lb.srcs[l], n: uint8(n), kinds: lb.scratch[l]})
	}
	return out
}
