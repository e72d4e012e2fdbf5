package wormhole

import (
	"fmt"
	"math/bits"

	"iadm/internal/simulator"
	"iadm/internal/topology"
)

// The flit-level phases. The cycle loop, the fault process and the
// accumulators are the shared model's (internal/simulator/model.go); step
// runs one cycle's phases, each visiting the receiving switches in
// ascending column order and, per switch, its incoming links in ascending
// dense index (the in table).
//
// Credits close in a single cycle: a pop returns its lane's credit
// before the upstream push phase runs, so a slot vacated this cycle is
// usable this cycle — the same compacting-shift semantics as the packet
// engine's queue pops. Backpressure is still real (a full
// lane has credit 0 and stalls its worm); the credit counters are the
// upstream bandwidth accounting, and simcheck re-verifies
// credit+size == LaneDepth on every lane after every cycle.
//
// Wormhole deadlock needs a cyclic channel dependency; the IADM is
// feed-forward (stage 0 -> n-1, ejection always drains), so worms
// cannot deadlock — they only stall on backpressure or die by drop.

// step runs one cycle's phases: deliver, stages n-2..0, then inject.
func (s *sim) step(cycle int, measured bool) {
	s.deliver(cycle, measured)
	for i := s.Stages - 2; i >= 0; i-- {
		s.stage(i, cycle, measured)
	}
	s.inject(cycle, measured)
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
func (s *sim) forwardOne(sh *simulator.Acc, e, at, stageOut, outBase, cycle int, measured bool, inPort *[3]bool) bool {
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
				sh.CkDropped++
				sh.Occupied--
				if measured {
					sh.FlitsDropped++
				}
				s.rotate[e] = int32((l + 1) % s.V)
				return false
			}
			var q2 int
			if f.meta&metaHead != 0 {
				out, ok := s.Choose(stageOut, at, int(f.dst), cycle, uint64(q), drawWhRoute)
				if !ok {
					// No usable link: the worm dies here. The head is
					// discarded now; the lane drains the body as it
					// arrives.
					s.popLane(q, e, lbit)
					sh.CkDropped++
					sh.Occupied--
					if measured {
						sh.FlitsDropped++
						sh.Dropped++
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
			if s.size[q2] > sh.MaxOcc {
				sh.MaxOcc = s.size[q2]
			}
			s.popLane(q, e, lbit)
			if f.meta&(metaHead|metaTail) == metaHead {
				s.route[q] = int32(q2) // the body will follow this claim
			}
			inPort[q2/s.V-outBase] = true
			if measured {
				s.Forwards[e]++
			}
			s.rotate[e] = int32((l + 1) % s.V)
			return true
		}
	}
	return false
}

// deliver ejects flits from the last stage's links into the output
// ports: one flit per link per cycle (SingleInput: one per output
// switch), lane chosen by the same rotating priority as forwarding. Tail
// ejections complete packets.
func (s *sim) deliver(cycle int, measured bool) {
	sh := &s.Acc
	rowBase := (s.Stages - 1) * s.N
	for to := 0; to < s.N; to++ {
		inBase := (rowBase + to) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.in[inBase+j])
			am := s.occMask[idx]
			if am == 0 {
				continue
			}
			if s.SingleInput && passed {
				continue
			}
			cand := am & (s.fullMask << uint(s.rotate[idx]))
			if cand == 0 {
				cand = am
			}
			l := bits.TrailingZeros64(cand)
			q := idx*s.V + l
			f := s.popLane(q, idx, uint64(1)<<uint(l))
			sh.CkOut++
			sh.Occupied--
			if int(f.dst) != to {
				panic(fmt.Sprintf("wormhole: flit for %d delivered to %d via %v",
					f.dst, to, topology.LinkFromIndex(s.P, idx)))
			}
			passed = true
			s.rotate[idx] = int32((l + 1) % s.V)
			if measured {
				sh.FlitsDelivered++
				s.Forwards[idx]++
				if f.meta&metaTail != 0 {
					sh.AddLatency(cycle - int(f.born))
				}
			}
		}
	}
}

// stage advances stage i's links into the column-(i+1) switches.
func (s *sim) stage(i, cycle int, measured bool) {
	sh := &s.Acc
	rowBase := i * s.N
	for at := 0; at < s.N; at++ {
		inBase := (rowBase + at) * 3
		outBase := ((i+1)*s.N + at) * 3
		var inPort [3]bool
		passed := false
		for j := 0; j < 3; j++ {
			if s.SingleInput && passed {
				continue
			}
			e := int(s.in[inBase+j])
			if s.forwardOne(sh, e, at, i+1, outBase, cycle, measured, &inPort) {
				passed = true
			}
		}
	}
}

// inject runs the injection loop over every source. A source streams one
// packet at a time: while flits remain it pushes the next one into its
// claimed stage-0 lane when credit allows (stalling otherwise), and only
// an idle source draws for a new packet.
func (s *sim) inject(cycle int, measured bool) {
	sh := &s.Acc
	for src := 0; src < s.N; src++ {
		if rem := s.srcPending[src]; rem > 0 {
			q := int(s.srcLane[src])
			if s.credit[q] > 0 {
				var meta uint8
				if rem == 1 {
					meta = metaTail
				}
				s.pushLane(q, flit{dst: s.srcDst[src], born: s.srcBorn[src], meta: meta})
				if s.size[q] > sh.MaxOcc {
					sh.MaxOcc = s.size[q]
				}
				s.srcPending[src] = rem - 1
				sh.CkIn++
				sh.Occupied++
				if measured {
					sh.FlitsInjected++
				}
			}
			continue
		}
		if !s.Starts(src, cycle) {
			continue
		}
		dst := s.Dest(src, cycle)
		out, ok := s.Choose(0, src, dst, cycle, uint64(src), drawWhRouteInj)
		if !ok {
			// Blockage at the very first hop: the packet never enters the
			// network (no flit counters move).
			if measured {
				sh.Dropped++
			}
			continue
		}
		free := ^s.claimMask[out] & s.fullMask
		if free == 0 {
			if measured {
				sh.Refused++
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
		if s.size[q] > sh.MaxOcc {
			sh.MaxOcc = s.size[q]
		}
		s.srcPending[src] = int32(s.cfg.PacketFlits - 1)
		s.srcLane[src] = int32(q)
		s.srcDst[src] = int32(dst)
		s.srcBorn[src] = int32(cycle)
		sh.CkIn++
		sh.Occupied++
		if measured {
			sh.Injected++
			sh.FlitsInjected++
		}
	}
}
