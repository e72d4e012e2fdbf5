// Package refwh is a deliberately naive reference implementation of the
// flit-level wormhole simulator: the differential oracle
// internal/wormhole is cross-validated against, playing the same role
// internal/refsim plays for the packet simulator.
//
// Where the optimized engine keeps every virtual-lane FIFO in one flat
// flit array behind per-link claim/occupancy bitmasks and bare credit
// counters, this package does the obviously-correct thing: one []flit
// slice per lane, a claimed flag and a route field per lane, credit
// recomputed as LaneDepth minus queue length, per-link flit totals
// summed on demand, and one fault draw per link per cycle — at whatever
// cost that takes. The two implementations share the wormhole.Config /
// wormhole.Metrics surface and the validation contract
// (wormhole.Validate), so any config accepted by one runs on both.
//
// RNG contract: both implementations draw from the same counter-based
// generator, internal/ctrrng. Every draw is splitmix64-finalized from
// (seed, cycle, entity, purpose), where the entity is the dense lane
// index for in-flight head routing and the source index for injection
// draws, and the purpose constants below are shared numerically with
// internal/wormhole. The generator is imported, not copied: its bits are
// pinned by ctrrng's golden test, and this oracle's independence lives
// in its lanes, credits, arbitration and fault process. Because a draw
// is a pure function of its coordinates, the two implementations make
// identical random decisions no matter how differently they schedule the
// work, and for configs with FaultRate == 0 every counter, histogram
// bucket and utilization sample must match exactly. The fault process is
// the one exception: refwh draws one Bernoulli per link per cycle under
// its own purpose constant while the optimized engine skip-samples a
// geometric chain, so fault configs are compared statistically instead.
package refwh

import (
	"fmt"

	"iadm/internal/ctrrng"
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// Draw-purpose domain separators, numerically identical to
// internal/wormhole's (they are part of the RNG contract). refWhFault is
// refwh-only: the per-link-per-cycle fault draws have no counterpart in
// the optimized engine (which skip-samples under its own constant), and
// a private domain keeps them from aliasing any shared draw site.
const (
	drawWhLoad     = 0x9b1f3a6d25c7e84b
	drawWhDst      = 0x6e3c89a5d1f0b72d
	drawWhHot      = 0xc4a7e1925f36d80b
	drawWhRoute    = 0x71d5bc0e9a248f63
	drawWhRouteInj = 0x3f82d64b17c9ae05
	refWhFault     = 0x2b64f18ea9c53d07 // refwh-only
)

// flit is one unit of transfer; head/tail flags mark worm boundaries.
// Every flit carries the packet's destination and head-injection cycle,
// as in the optimized engine.
type flit struct {
	dst, born  int
	head, tail bool
}

// Lane-route sentinels, mirroring the optimized engine's.
const (
	laneNone     = -1
	laneDropping = -2
)

// lane is one virtual lane: a flit FIFO plus the worm-claim state.
type lane struct {
	fifo    []flit
	claimed bool // a worm holds this lane (head pushed, tail not yet popped)
	routeTo int  // downstream lane the worm claimed; laneNone / laneDropping
}

// state is one reference simulation. Links are addressed by the same
// dense index as the optimized engine — (stage*N + from)*3 + kind — and
// lane l of link e is lanes[e*V + l].
type state struct {
	cfg wormhole.Config
	p   topology.Params

	n, N, L, V, D int
	single        bool

	rng    ctrrng.RNG
	lanes  []lane
	rotate []int // per link: lane the arbiter scans first
	toOf   []int
	in     [][]int // incoming links per (stage row * N + switch), ascending

	blocked   []bool
	failUntil []int
	now       int

	srcPending, srcLane, srcDst, srcBorn []int

	loadT, hotT, faultT uint64
	dstMask             uint64

	injected, delivered, dropped, refused int
	fInjected, fDelivered, fDropped       int
	forwards                              []int
	maxDepth                              int
	queueSum, queueSamples                int64

	latHist  []int // tail-ejection latency histogram, folded at finish
	latClamp int
}

// Run executes cfg on the reference simulator and returns metrics with
// the same meaning (and, for FaultRate == 0, the same values) as
// wormhole.Run. IntraWorkers is ignored, as it is by wormhole.Run.
func Run(cfg wormhole.Config) (wormhole.Metrics, error) {
	if err := wormhole.Validate(cfg); err != nil {
		return wormhole.Metrics{}, err
	}
	p, err := topology.NewParams(cfg.N)
	if err != nil {
		return wormhole.Metrics{}, err
	}
	n, N := p.Stages(), cfg.N
	L := 3 * N * n
	V, D := cfg.Lanes, cfg.LaneDepth
	s := &state{
		cfg: cfg, p: p,
		n: n, N: N, L: L, V: V, D: D,
		single:     cfg.Switches == simulator.SingleInput,
		rng:        ctrrng.New(cfg.Seed),
		lanes:      make([]lane, L*V),
		rotate:     make([]int, L),
		toOf:       make([]int, L),
		in:         make([][]int, n*N),
		blocked:    make([]bool, L),
		failUntil:  make([]int, L),
		srcPending: make([]int, N),
		srcLane:    make([]int, N),
		srcDst:     make([]int, N),
		srcBorn:    make([]int, N),
		forwards:   make([]int, L),
		loadT:      ctrrng.BernoulliThreshold(cfg.Load),
		hotT:       ctrrng.BernoulliThreshold(cfg.HotspotFrac),
		faultT:     ctrrng.BernoulliThreshold(cfg.FaultRate),
		dstMask:    uint64(N - 1),
	}
	for q := range s.lanes {
		s.lanes[q].routeTo = laneNone
	}
	for idx := 0; idx < L; idx++ {
		l := topology.LinkFromIndex(p, idx)
		s.toOf[idx] = l.To(p)
		if cfg.Blocked != nil && cfg.Blocked.Blocked(l) {
			s.blocked[idx] = true
		}
		row := (idx/(3*N))*N + s.toOf[idx]
		s.in[row] = append(s.in[row], idx)
	}
	latBuckets := cfg.Warmup + cfg.Cycles + 1
	if latBuckets > 1<<16 {
		latBuckets = 1 << 16
	}
	s.latHist = make([]int, latBuckets)
	s.latClamp = latBuckets - 1

	total := cfg.Warmup + cfg.Cycles
	for cycle := 0; cycle < total; cycle++ {
		s.step(cycle, cycle >= cfg.Warmup)
	}
	return s.finish(), nil
}

// linkBlocked reports whether a link is statically blocked or
// transiently failed at the current cycle.
func (s *state) linkBlocked(idx int) bool {
	return s.blocked[idx] || s.failUntil[idx] > s.now
}

// linkFlits is the adaptive policy's congestion signal: total flits
// queued across a link's lanes, recomputed the slow way.
func (s *state) linkFlits(e int) int {
	total := 0
	for l := 0; l < s.V; l++ {
		total += len(s.lanes[e*s.V+l].fifo)
	}
	return total
}

// chooseLink picks the outgoing link of switch sw at the given stage for
// a head flit to dst, mirroring the optimized engine's ladder and draw
// coordinates exactly. ok=false means no usable link exists.
func (s *state) chooseLink(stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
	base := (stage*s.N + sw) * 3
	if ((sw^dst)>>uint(stage))&1 == 0 {
		idx := base + 1 // straight
		if s.linkBlocked(idx) {
			return 0, false
		}
		return idx, true
	}
	minus, plus := base, base+2
	mOK, pOK := !s.linkBlocked(minus), !s.linkBlocked(plus)
	switch {
	case !pOK && !mOK:
		return 0, false
	case pOK && !mOK:
		return plus, true
	case mOK && !pOK:
		return minus, true
	}
	switch s.cfg.Policy {
	case simulator.StaticC:
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
		lp, lm := s.linkFlits(plus), s.linkFlits(minus)
		switch {
		case lp < lm:
			return plus, true
		case lm < lp:
			return minus, true
		default:
			// Tie: the state-C default.
			if (sw>>uint(stage))&1 == 0 {
				return plus, true
			}
			return minus, true
		}
	}
}

// freeLane returns the lowest unclaimed lane of link out, or -1 — the
// naive spelling of the engine's TrailingZeros64 over ^claimMask.
func (s *state) freeLane(out int) int {
	for l := 0; l < s.V; l++ {
		if !s.lanes[out*s.V+l].claimed {
			return l
		}
	}
	return -1
}

// firstNonEmpty returns link e's first non-empty lane in rotating
// priority order (lanes >= rotate[e] first, then the wrap-around), or
// -1. The engine spells the same scan with two masked bit iterations.
func (s *state) firstNonEmpty(e int) int {
	for t := 0; t < s.V; t++ {
		l := s.rotate[e] + t
		if l >= s.V {
			l -= s.V
		}
		if len(s.lanes[e*s.V+l].fifo) > 0 {
			return l
		}
	}
	return -1
}

// push appends f to lane q, tracking the maximum depth ever seen (warmup
// included, as in the optimized engine).
func (s *state) push(q int, f flit) {
	ln := &s.lanes[q]
	ln.fifo = append(ln.fifo, f)
	if len(ln.fifo) > s.maxDepth {
		s.maxDepth = len(ln.fifo)
	}
}

// pop removes lane q's front flit; a tail releases the worm's claim.
func (s *state) pop(q int) flit {
	ln := &s.lanes[q]
	f := ln.fifo[0]
	ln.fifo = ln.fifo[1:]
	if f.tail {
		ln.claimed = false
		ln.routeTo = laneNone
	}
	return f
}

// forwardOne gives incoming link e its one forward opportunity of the
// cycle: advance the front flit of the first rotating-priority lane that
// can actually move into switch at (column stageOut). inPort records
// which of at's outgoing links already accepted a flit this cycle.
// Returns whether a flit passed through the switch — drops and drains
// consume the link's turn but do not count as passing (the SingleInput
// budget).
func (s *state) forwardOne(e, at, stageOut, outBase, cycle int, measured bool, inPort *[3]bool) bool {
	for t := 0; t < s.V; t++ {
		l := s.rotate[e] + t
		if l >= s.V {
			l -= s.V
		}
		q := e*s.V + l
		ln := &s.lanes[q]
		if len(ln.fifo) == 0 {
			continue
		}
		f := ln.fifo[0]
		if ln.routeTo == laneDropping {
			// Drain one flit of a dropped worm; the tail pop releases the
			// claim (and resets routeTo).
			s.pop(q)
			if measured {
				s.fDropped++
			}
			s.rotate[e] = (l + 1) % s.V
			return false
		}
		var q2 int
		if f.head {
			out, ok := s.chooseLink(stageOut, at, f.dst, cycle, uint64(q), drawWhRoute)
			if !ok {
				// No usable link: the worm dies here; the lane drains the
				// body as it arrives.
				s.pop(q)
				if measured {
					s.fDropped++
					s.dropped++
				}
				if !f.tail {
					ln.routeTo = laneDropping
				}
				s.rotate[e] = (l + 1) % s.V
				return false
			}
			if inPort[out-outBase] {
				continue // channel already accepted a flit; try the next lane
			}
			fl := s.freeLane(out)
			if fl < 0 {
				continue // every downstream lane claimed
			}
			q2 = out*s.V + fl
			// A fresh claim is an empty lane, so no credit check for the
			// head itself.
			s.lanes[q2].claimed = true
		} else {
			// Body/tail: follow the head's claimed lane, against credit.
			q2 = ln.routeTo
			if inPort[q2/s.V-outBase] {
				continue
			}
			if len(s.lanes[q2].fifo) >= s.D {
				continue // backpressure: downstream lane full
			}
		}
		s.push(q2, f)
		s.pop(q)
		if f.head && !f.tail {
			ln.routeTo = q2 // the body will follow this claim
		}
		inPort[q2/s.V-outBase] = true
		if measured {
			s.forwards[e]++
		}
		s.rotate[e] = (l + 1) % s.V
		return true
	}
	return false
}

// step advances one cycle: faults, ejection at the output column, the
// intermediate stages back-to-front, then injection — visiting receiving
// switches in ascending order and each switch's incoming links in
// ascending dense index, the optimized engine's sweep order.
func (s *state) step(cycle int, measured bool) {
	s.now = cycle
	// One Bernoulli draw per link per cycle, keyed (cycle, link) under
	// the refwh-only domain; a hit on an already-failed link is
	// discarded, so every working link fails with probability FaultRate
	// per cycle — the semantics the optimized engine reproduces by
	// geometric skip-sampling over its own fault domain.
	if s.cfg.FaultRate > 0 {
		for idx := 0; idx < s.L; idx++ {
			if s.rng.Hit(s.faultT, uint64(cycle), uint64(idx), refWhFault) && s.failUntil[idx] <= cycle {
				s.failUntil[idx] = cycle + s.cfg.RepairCycles
			}
		}
	}
	// Eject at the output column: one flit per link per cycle
	// (SingleInput: one per output switch), lane chosen by rotation.
	rowBase := (s.n - 1) * s.N
	for to := 0; to < s.N; to++ {
		passed := false
		for _, idx := range s.in[rowBase+to] {
			l := s.firstNonEmpty(idx)
			if l < 0 {
				continue
			}
			if s.single && passed {
				continue
			}
			f := s.pop(idx*s.V + l)
			if f.dst != to {
				panic(fmt.Sprintf("refwh: flit for %d delivered to %d via %v",
					f.dst, to, topology.LinkFromIndex(s.p, idx)))
			}
			passed = true
			s.rotate[idx] = (l + 1) % s.V
			if measured {
				s.fDelivered++
				s.forwards[idx]++
				if f.tail {
					s.delivered++
					lat := cycle - f.born
					if lat > s.latClamp {
						lat = s.latClamp
					}
					s.latHist[lat]++
				}
			}
		}
	}
	// Advance intermediate stages, highest first, so a flit moves at most
	// one stage per cycle and a pop's freed slot is usable upstream this
	// same cycle.
	for i := s.n - 2; i >= 0; i-- {
		rb := i * s.N
		for at := 0; at < s.N; at++ {
			outBase := ((i+1)*s.N + at) * 3
			var inPort [3]bool
			passed := false
			for _, e := range s.in[rb+at] {
				if s.single && passed {
					continue
				}
				if s.forwardOne(e, at, i+1, outBase, cycle, measured, &inPort) {
					passed = true
				}
			}
		}
	}
	// Inject: a source streams one packet at a time, stalling on
	// backpressure; only an idle source draws for a new packet.
	for src := 0; src < s.N; src++ {
		if rem := s.srcPending[src]; rem > 0 {
			q := s.srcLane[src]
			if len(s.lanes[q].fifo) < s.D {
				s.push(q, flit{dst: s.srcDst[src], born: s.srcBorn[src], tail: rem == 1})
				s.srcPending[src] = rem - 1
				if measured {
					s.fInjected++
				}
			}
			continue
		}
		c, e := uint64(cycle), uint64(src)
		if !s.rng.Hit(s.loadT, c, e, drawWhLoad) {
			continue
		}
		var dst int
		if s.cfg.Traffic == simulator.Uniform {
			dst = s.rng.Intn(s.dstMask, c, e, drawWhDst)
		} else {
			dst = s.pickDestination(src, cycle)
		}
		out, ok := s.chooseLink(0, src, dst, cycle, e, drawWhRouteInj)
		if !ok {
			// Blockage at the very first hop: the packet never enters the
			// network.
			if measured {
				s.dropped++
			}
			continue
		}
		fl := s.freeLane(out)
		if fl < 0 {
			if measured {
				s.refused++
			}
			continue
		}
		q := out*s.V + fl
		s.lanes[q].claimed = true
		s.push(q, flit{dst: dst, born: cycle, head: true, tail: s.cfg.PacketFlits == 1})
		s.srcPending[src] = s.cfg.PacketFlits - 1
		s.srcLane[src] = q
		s.srcDst[src] = dst
		s.srcBorn[src] = cycle
		if measured {
			s.injected++
			s.fInjected++
		}
	}
	// Sample lane occupancy the slow way: walk every lane.
	if measured {
		occ := 0
		for q := range s.lanes {
			occ += len(s.lanes[q].fifo)
		}
		s.queueSum += int64(occ)
		s.queueSamples += int64(s.L) * int64(s.V)
	}
}

// pickDestination draws a destination for a packet from src (non-Uniform
// traffic kinds).
func (s *state) pickDestination(src, cycle int) int {
	c, e := uint64(cycle), uint64(src)
	switch s.cfg.Traffic {
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

// finish assembles the Metrics with the same derivations — and the same
// histogram-fold order into the latency stream, so even the
// floating-point Welford moments match the engine's bit-for-bit on
// fault-free configs.
func (s *state) finish() wormhole.Metrics {
	m := wormhole.Metrics{
		Injected:       s.injected,
		Delivered:      s.delivered,
		Dropped:        s.dropped,
		Refused:        s.refused,
		FlitsInjected:  s.fInjected,
		FlitsDelivered: s.fDelivered,
		FlitsDropped:   s.fDropped,
		MaxLaneDepth:   s.maxDepth,
	}
	m.Throughput = float64(s.delivered) / float64(s.cfg.Cycles) / float64(s.N)
	m.FlitThroughput = float64(s.fDelivered) / float64(s.cfg.Cycles) / float64(s.N)
	if s.queueSamples > 0 {
		m.MeanLaneOcc = float64(s.queueSum) / float64(s.queueSamples)
	}
	lat := stats.NewStream(1, len(s.latHist))
	for v, c := range s.latHist {
		lat.AddN(float64(v), c)
	}
	utilS := stats.NewStream(1.0/1024, 1025)
	utilN := stats.NewStream(1.0/1024, 1025)
	for idx := 0; idx < s.L; idx++ {
		util := float64(s.forwards[idx]) / float64(s.cfg.Cycles)
		if idx%3 != 1 { // kinds are Minus(0), Straight(1), Plus(2)
			utilN.Add(util)
		} else {
			utilS.Add(util)
		}
	}
	m.Latency = lat
	m.UtilStraight = utilS
	m.UtilNonstraight = utilN
	return m
}
