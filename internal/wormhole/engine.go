package wormhole

import (
	"fmt"
	"math/bits"

	"iadm/internal/ctrrng"
	"iadm/internal/fanout"
	"iadm/internal/simulator"
	"iadm/internal/topology"
)

// The cycle engine. One engine serves both the sequential and the
// sharded case: every phase sweeps receiving switches over the
// contiguous column ranges [shardLo[k], shardLo[k+1]), and IntraWorkers
// merely decides how many such ranges run concurrently (one covers the
// whole column when the pool is off). Bit-identical results for every
// worker count follow from the same two properties as the packet engine
// (see internal/simulator/sharded.go):
//
//  1. Every random draw is a pure function of (seed, cycle, entity,
//     purpose), so its value does not depend on which worker evaluates
//     it or when.
//
//  2. Ownership sharding: within a phase, the owner of receiving switch
//     `at` is the only goroutine touching (a) its incoming links' lane
//     FIFOs, credits, occupancy/claim masks, flit counts, rotation
//     pointers and forward counters — pops — and (b) its own outgoing
//     links' lane state — pushes. Outgoing links of distinct switches
//     are distinct, incoming links have a single receiver, and the
//     phase order (deliver, then stages n-2..0, then inject) means the
//     links a phase pushes into were popped in an earlier,
//     barrier-separated phase. Operations of different receiving
//     switches therefore commute, and any contiguous partition of a
//     phase's sweep yields the state the full sequential sweep would.
//
// Credits close in a single cycle: a pop returns its lane's credit at
// the barrier before the upstream push phase runs, so a slot vacated
// this cycle is usable this cycle — the same compacting-shift semantics
// as the packet engine's queue pops. Backpressure is still real (a full
// lane has credit 0 and stalls its worm); the credit counters are the
// upstream bandwidth accounting, and simcheck re-verifies
// credit+size == LaneDepth on every lane after every cycle.
//
// Wormhole deadlock needs a cyclic channel dependency; the IADM is
// feed-forward (stage 0 -> n-1, ejection always drains), so worms
// cannot deadlock — they only stall on backpressure or die by drop.

// shardState is one shard's accumulator set, cumulative from cycle 0 of
// the current run; mergeCycle recomputes the sim-level totals from the
// full set each cycle, which keeps the merge order-independent. The pad
// keeps adjacent shards' hot counters off one cache line.
type shardState struct {
	injected, delivered, dropped, refused int64 // packets, measured window
	fInjected, fDelivered, fDropped       int64 // flits, measured window
	occDelta                              int64 // net queued-flit delta
	ckFInj, ckFDel, ckFDrop               int64 // conservation shadows (warmup included)
	maxDepth                              int32
	latHist                               []int32
	_                                     [64]byte
}

func (sh *shardState) reset() {
	sh.injected, sh.delivered, sh.dropped, sh.refused = 0, 0, 0, 0
	sh.fInjected, sh.fDelivered, sh.fDropped = 0, 0, 0
	sh.occDelta = 0
	sh.ckFInj, sh.ckFDel, sh.ckFDrop = 0, 0, 0
	sh.maxDepth = 0
	clear(sh.latHist)
}

// advanceFaultTrial and stepFaults are the packet engine's geometric
// fault skip-chain, keyed under the wormhole's own purpose constant: the
// flattened (cycle, link) Bernoulli trial sequence is skip-sampled so the
// cost is O(faults) per cycle, and the whole chain is a pure function of
// the seed.
func (s *sim) advanceFaultTrial(pos int64) int64 {
	u := s.rng.Word(uint64(pos+1), 0, drawWhFault)
	return pos + ctrrng.GeometricSkipFromWord(u, s.invLn1mF)
}

func (s *sim) stepFaults(cycle int) {
	start := int64(cycle) * int64(s.L)
	end := start + int64(s.L)
	for s.nextFaultTrial < end {
		idx := int(s.nextFaultTrial - start)
		if int(s.failUntil[idx]) <= cycle {
			s.failUntil[idx] = int32(cycle + s.cfg.RepairCycles)
		}
		s.nextFaultTrial = s.advanceFaultTrial(s.nextFaultTrial)
	}
}

// linkBlocked reports whether a link is statically blocked or transiently
// failed right now. Read-only during phases (stepFaults runs before the
// first barrier of the cycle).
func (s *sim) linkBlocked(idx int) bool {
	if s.hasStatic && s.staticBlocked[idx] {
		return true
	}
	return s.faulty && int(s.failUntil[idx]) > s.nowCycle
}

// chooseLink picks the outgoing link of switch sw at the given stage for
// a head flit to dst: the same destination-tag ladder as the packet
// engine's chooseQueue, with AdaptiveSSDT comparing total queued flits
// per link instead of packets. ok=false means no usable link exists and
// the worm must be dropped.
func (s *sim) chooseLink(stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
	base := (stage*s.N + sw) * 3
	if ((sw^dst)>>uint(stage))&1 == 0 {
		idx := base + 1 // straight
		if s.blockable && s.linkBlocked(idx) {
			return 0, false
		}
		return idx, true
	}
	minus, plus := base, base+2
	if s.blockable {
		mOK, pOK := !s.linkBlocked(minus), !s.linkBlocked(plus)
		switch {
		case !pOK && !mOK:
			return 0, false
		case pOK && !mOK:
			return plus, true
		case mOK && !pOK:
			return minus, true
		}
	}
	switch s.policy {
	case simulator.StaticC:
		// State C: even_i uses +2^i, odd_i uses -2^i.
		if (sw>>uint(stage))&1 == 0 {
			return plus, true
		}
		return minus, true
	case simulator.RandomState:
		if s.rng.Bit(uint64(cycle), entity, purpose) {
			return plus, true
		}
		return minus, true
	default: // AdaptiveSSDT
		lp, lm := s.linkFlits[plus], s.linkFlits[minus]
		switch {
		case lp < lm:
			return plus, true
		case lm < lp:
			return minus, true
		default:
			// Tie: fall back to the state-C default.
			if (sw>>uint(stage))&1 == 0 {
				return plus, true
			}
			return minus, true
		}
	}
}

// pickDestination draws a destination for a packet from src (non-Uniform
// traffic kinds; Uniform is inlined at the call site).
func (s *sim) pickDestination(src, cycle int) int {
	c, e := uint64(cycle), uint64(src)
	switch s.traffic {
	case simulator.Hotspot:
		if s.rng.Hit(s.hotT, c, e, drawWhHot) {
			return s.cfg.HotspotDest
		}
		return s.rng.Intn(s.dstMask, c, e, drawWhDst)
	case simulator.PermutationTraffic:
		return s.cfg.Perm[src]
	case simulator.BitComplementTraffic:
		return s.N - 1 - src
	case simulator.Tornado:
		return (src + s.N/2 - 1) % s.N
	default:
		return s.rng.Intn(s.dstMask, c, e, drawWhDst)
	}
}

// pushLane appends a flit to lane q (caller has verified space via
// credit or a fresh claim) and maintains the per-link aggregates.
func (s *sim) pushLane(q int, f flit) {
	h := int(s.head[q]) + int(s.size[q])
	if h >= s.D {
		h -= s.D
	}
	s.buf[q*s.D+h] = f
	s.size[q]++
	s.credit[q]--
	e := q / s.V
	s.occMask[e] |= uint64(1) << uint(q-e*s.V)
	s.linkFlits[e]++
}

// popLane removes lane q's front flit, returns its credit, and — when
// the flit is a tail — releases the worm's claim on the lane.
func (s *sim) popLane(q, e int, lbit uint64) flit {
	f := s.buf[q*s.D+int(s.head[q])]
	h := s.head[q] + 1
	if h == int32(s.D) {
		h = 0
	}
	s.head[q] = h
	s.size[q]--
	s.credit[q]++
	s.linkFlits[e]--
	if s.size[q] == 0 {
		s.occMask[e] &^= lbit
	}
	if f.meta&metaTail != 0 {
		s.claimMask[e] &^= lbit
		s.route[q] = laneNone
	}
	return f
}

// forwardOne gives incoming link e its one forward opportunity of the
// cycle: scan e's non-empty lanes in rotating-priority order and advance
// the first front flit that can actually move into switch `at` at column
// stageOut. outBase is the dense index of at's first outgoing link;
// inPort records which of those links already accepted a flit this cycle
// (one flit into each link per cycle). Returns whether a flit passed
// through the switch — drops and drains consume the link's turn but do
// not count as passing (the SingleInput budget).
func (s *sim) forwardOne(sh *shardState, e, at, stageOut, outBase, cycle int, measured bool, inPort *[3]bool) bool {
	am := s.occMask[e]
	if am == 0 {
		return false
	}
	// Non-empty lanes >= rotate[e] first, then the wrapped-around rest.
	hiMask := s.fullMask << uint(s.rotate[e])
	parts := [2]uint64{am & hiMask, am &^ hiMask}
	for _, part := range parts {
		for part != 0 {
			l := bits.TrailingZeros64(part)
			part &= part - 1
			lbit := uint64(1) << uint(l)
			q := e*s.V + l
			f := s.buf[q*s.D+int(s.head[q])]
			if s.route[q] == laneDropping {
				// Drain one flit of a dropped worm; the tail pop releases
				// the claim (and popLane resets route to laneNone).
				s.popLane(q, e, lbit)
				sh.ckFDrop++
				sh.occDelta--
				if measured {
					sh.fDropped++
				}
				s.rotate[e] = int32((l + 1) % s.V)
				return false
			}
			var q2 int
			if f.meta&metaHead != 0 {
				out, ok := s.chooseLink(stageOut, at, int(f.dst), cycle, uint64(q), drawWhRoute)
				if !ok {
					// No usable link: the worm dies here. The head is
					// discarded now; the lane drains the body as it
					// arrives.
					s.popLane(q, e, lbit)
					sh.ckFDrop++
					sh.occDelta--
					if measured {
						sh.fDropped++
						sh.dropped++
					}
					if f.meta&metaTail == 0 {
						s.route[q] = laneDropping
					}
					s.rotate[e] = int32((l + 1) % s.V)
					return false
				}
				if inPort[out-outBase] {
					continue // channel already accepted a flit; try the next lane
				}
				free := ^s.claimMask[out] & s.fullMask
				if free == 0 {
					continue // every downstream lane claimed
				}
				fl := bits.TrailingZeros64(free)
				q2 = out*s.V + fl
				// A fresh claim is an empty lane (claim releases only at
				// tail pop), so credit[q2] == LaneDepth >= 1: no credit
				// check needed for the head itself.
				s.claimMask[out] |= uint64(1) << uint(fl)
			} else {
				// Body/tail: follow the head's claimed lane, against credit.
				q2 = int(s.route[q])
				if inPort[q2/s.V-outBase] {
					continue
				}
				if s.credit[q2] == 0 {
					continue // backpressure: downstream lane full
				}
			}
			s.pushLane(q2, f)
			if s.size[q2] > sh.maxDepth {
				sh.maxDepth = s.size[q2]
			}
			s.popLane(q, e, lbit)
			if f.meta&(metaHead|metaTail) == metaHead {
				s.route[q] = int32(q2) // the body will follow this claim
			}
			inPort[q2/s.V-outBase] = true
			if measured {
				s.forwards[e]++
			}
			s.rotate[e] = int32((l + 1) % s.V)
			return true
		}
	}
	return false
}

// shardDeliver ejects flits from the last stage's links into the output
// ports owned by shard k: one flit per link per cycle (SingleInput: one
// per output switch), lane chosen by the same rotating priority as
// forwarding. Tail ejections complete packets.
func (s *sim) shardDeliver(k, cycle int, measured bool) {
	sh := &s.shards[k]
	rowBase := (s.n - 1) * s.N
	for to := int(s.shardLo[k]); to < int(s.shardLo[k+1]); to++ {
		inBase := (rowBase + to) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.in[inBase+j])
			am := s.occMask[idx]
			if am == 0 {
				continue
			}
			if s.singleInput && passed {
				continue
			}
			cand := am & (s.fullMask << uint(s.rotate[idx]))
			if cand == 0 {
				cand = am
			}
			l := bits.TrailingZeros64(cand)
			q := idx*s.V + l
			f := s.popLane(q, idx, uint64(1)<<uint(l))
			sh.ckFDel++
			sh.occDelta--
			if int(f.dst) != to {
				panic(fmt.Sprintf("wormhole: flit for %d delivered to %d via %v",
					f.dst, to, topology.LinkFromIndex(s.p, idx)))
			}
			passed = true
			s.rotate[idx] = int32((l + 1) % s.V)
			if measured {
				sh.fDelivered++
				s.forwards[idx]++
				if f.meta&metaTail != 0 {
					sh.delivered++
					lat := cycle - int(f.born)
					if lat >= len(sh.latHist) {
						lat = len(sh.latHist) - 1
					}
					sh.latHist[lat]++
				}
			}
		}
	}
}

// shardStage advances stage i's links into the column-(i+1) switches
// owned by shard k.
func (s *sim) shardStage(k, i, cycle int, measured bool) {
	sh := &s.shards[k]
	rowBase := i * s.N
	for at := int(s.shardLo[k]); at < int(s.shardLo[k+1]); at++ {
		inBase := (rowBase + at) * 3
		outBase := ((i+1)*s.N + at) * 3
		var inPort [3]bool
		passed := false
		for j := 0; j < 3; j++ {
			if s.singleInput && passed {
				continue
			}
			e := int(s.in[inBase+j])
			if s.forwardOne(sh, e, at, i+1, outBase, cycle, measured, &inPort) {
				passed = true
			}
		}
	}
}

// shardInject runs the injection loop for the sources owned by shard k.
// A source streams one packet at a time: while flits remain it pushes the
// next one into its claimed stage-0 lane when credit allows (stalling
// otherwise), and only an idle source draws for a new packet.
func (s *sim) shardInject(k, cycle int, measured bool) {
	sh := &s.shards[k]
	for src := int(s.shardLo[k]); src < int(s.shardLo[k+1]); src++ {
		if rem := s.srcPending[src]; rem > 0 {
			q := int(s.srcLane[src])
			if s.credit[q] > 0 {
				var meta uint8
				if rem == 1 {
					meta = metaTail
				}
				s.pushLane(q, flit{dst: s.srcDst[src], born: s.srcBorn[src], meta: meta})
				if s.size[q] > sh.maxDepth {
					sh.maxDepth = s.size[q]
				}
				s.srcPending[src] = rem - 1
				sh.ckFInj++
				sh.occDelta++
				if measured {
					sh.fInjected++
				}
			}
			continue
		}
		c, e := uint64(cycle), uint64(src)
		if !s.rng.Hit(s.loadT, c, e, drawWhLoad) {
			continue
		}
		var dst int
		if s.traffic == simulator.Uniform {
			dst = s.rng.Intn(s.dstMask, c, e, drawWhDst)
		} else {
			dst = s.pickDestination(src, cycle)
		}
		out, ok := s.chooseLink(0, src, dst, cycle, e, drawWhRouteInj)
		if !ok {
			// Blockage at the very first hop: the packet never enters the
			// network (no flit counters move).
			if measured {
				sh.dropped++
			}
			continue
		}
		free := ^s.claimMask[out] & s.fullMask
		if free == 0 {
			if measured {
				sh.refused++
			}
			continue
		}
		fl := bits.TrailingZeros64(free)
		q := out*s.V + fl
		s.claimMask[out] |= uint64(1) << uint(fl)
		meta := uint8(metaHead)
		if s.cfg.PacketFlits == 1 {
			meta |= metaTail
		}
		s.pushLane(q, flit{dst: int32(dst), born: int32(cycle), meta: meta})
		if s.size[q] > sh.maxDepth {
			sh.maxDepth = s.size[q]
		}
		s.srcPending[src] = int32(s.cfg.PacketFlits - 1)
		s.srcLane[src] = int32(q)
		s.srcDst[src] = int32(dst)
		s.srcBorn[src] = int32(cycle)
		sh.ckFInj++
		sh.occDelta++
		if measured {
			sh.injected++
			sh.fInjected++
		}
	}
}

// runShardPhase executes one shard's slice of one phase.
func (s *sim) runShardPhase(k int, ph fanout.Phase) {
	switch ph.Kind {
	case fanout.Deliver:
		s.shardDeliver(k, ph.Cycle, ph.Measured)
	case fanout.Stage:
		s.shardStage(k, ph.Stage, ph.Cycle, ph.Measured)
	default:
		s.shardInject(k, ph.Cycle, ph.Measured)
	}
}

// doPhase runs one phase over every shard: through the pool (with its
// barrier) when intra-run workers are on, directly otherwise.
func (s *sim) doPhase(ph fanout.Phase) {
	if s.pool != nil {
		s.pool.Dispatch(ph)
	} else {
		s.runShardPhase(0, ph)
	}
}

// mergeCycle recomputes the sim-level totals from the cumulative
// per-shard accumulators: exact integer sums and maxes, so the result is
// identical for every shard count and unaffected by when the merge runs.
func (s *sim) mergeCycle() {
	var inj, del, drop, ref, fi, fd, fx, occ int64
	var ckI, ckD, ckX int64
	var md int32
	for k := range s.shards {
		sh := &s.shards[k]
		inj += sh.injected
		del += sh.delivered
		drop += sh.dropped
		ref += sh.refused
		fi += sh.fInjected
		fd += sh.fDelivered
		fx += sh.fDropped
		occ += sh.occDelta
		ckI += sh.ckFInj
		ckD += sh.ckFDel
		ckX += sh.ckFDrop
		if sh.maxDepth > md {
			md = sh.maxDepth
		}
	}
	s.m.Injected, s.m.Delivered, s.m.Dropped, s.m.Refused = int(inj), int(del), int(drop), int(ref)
	s.m.FlitsInjected, s.m.FlitsDelivered, s.m.FlitsDropped = int(fi), int(fd), int(fx)
	s.occupied = occ
	s.ck = checkCounters{fInjected: ckI, fDelivered: ckD, fDropped: ckX}
	s.maxDepth = md
}

// run executes the configured cycles and finalizes metrics. Phase order
// within a cycle: faults, deliver (stage n-1), stages n-2..0, inject —
// back-to-front, so a flit advances at most one stage per cycle and a
// pop's returned credit is visible to the upstream push phase.
func (s *sim) run() Metrics {
	total := s.cfg.Warmup + s.cfg.Cycles
	if s.pool != nil {
		s.pool.Unpark()
	}
	for cycle := 0; cycle < total; cycle++ {
		measured := cycle >= s.cfg.Warmup
		s.nowCycle = cycle
		if s.faulty {
			s.stepFaults(cycle) // sequential: O(faults), read-only during phases
		}
		s.doPhase(fanout.Phase{Kind: fanout.Deliver, Cycle: cycle, Measured: measured})
		for i := s.n - 2; i >= 0; i-- {
			s.doPhase(fanout.Phase{Kind: fanout.Stage, Stage: i, Cycle: cycle, Measured: measured})
		}
		s.doPhase(fanout.Phase{Kind: fanout.Inject, Cycle: cycle, Measured: measured})
		s.mergeCycle()
		if measured {
			s.queueSum += s.occupied
			s.queueSamples += int64(s.L) * int64(s.V)
		}
		if s.check {
			s.checkInvariants(cycle)
		}
	}
	if s.pool != nil {
		s.pool.Park()
	}
	for k := range s.shards {
		for v, c := range s.shards[k].latHist {
			s.latHist[v] += c
		}
	}
	if s.check && s.intraP > 1 {
		s.checkShardMerge()
	}
	return s.finish()
}
