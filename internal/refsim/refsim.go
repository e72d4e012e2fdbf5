// Package refsim is a deliberately naive reference implementation of the
// cycle-level IADM packet simulator: the differential oracle the
// optimized core (internal/simulator) is cross-validated against.
//
// Where the optimized core keeps every per-link FIFO in one flat ring
// buffer behind an occupancy bitset, draws Bernoulli trials as integer
// threshold compares, and injects transient faults by geometric
// skip-sampling, this package does the obviously-correct thing: one
// []packet slice per link, one fault draw per link per cycle, and direct
// accumulation into the stats streams — at whatever cost that takes. The
// two implementations share the simulator.Config / simulator.Metrics
// surface and the validation contract (simulator.Validate), so any
// config accepted by one runs on both and the results can be compared
// field by field.
//
// RNG contract: both implementations draw from the same counter-based
// generator, internal/ctrrng. Every draw is splitmix64-finalized from
// (seed, cycle, entity, purpose), where the entity is the incoming-link
// index for transit routing draws and the source index for
// injection-side draws, and the purpose constants below are shared
// numerically with the optimized core. The generator is imported, not
// copied: its bits are pinned by ctrrng's golden test, and this oracle's
// independence lives in its queues, arbitration and fault process.
// Because a draw is a pure function of its coordinates rather than a
// position in a stream, the two implementations make identical random
// decisions no matter how differently they schedule the work (including
// the optimized core's sharded engine), and for configs with
// FaultRate == 0 every counter, histogram bucket and utilization sample
// must match exactly — the strongest form of differential check. The
// fault process is the one exception: refsim draws one Bernoulli per
// link per cycle under its own purpose constant, while the optimized core
// skip-samples a geometric chain, so fault configs are compared
// statistically instead.
package refsim

import (
	"fmt"

	"iadm/internal/ctrrng"
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

// pkt is one in-flight packet: destination switch and injection cycle.
type pkt struct {
	dst  int
	born int
}

// Draw-purpose domain separators, numerically identical to the optimized
// core's (they are part of the RNG contract). refFault is refsim-only:
// the per-link-per-cycle fault draws have no counterpart draw in the
// optimized core, and a private domain keeps them from aliasing any
// shared draw site.
const (
	drawLoad      = 0xa0761d6478bd642f
	drawDst       = 0xe7037ed1a0b428db
	drawHot       = 0x8ebc6af09c88c6e3
	drawRoute     = 0x589965cc75374cc3
	drawRouteInj  = 0x1d8e4e27c47d124f
	drawBurst     = 0xeb44accab455d165
	drawBurstInit = 0x2f9be6cc5be4f095
	refFault      = 0x3c79ac492ba7b653 // refsim-only
)

// state is one reference simulation. Links are addressed by the same
// dense index as the optimized core — (stage*N + from)*3 + kind with
// kinds Minus(0), Straight(1), Plus(2) — so sweep order lines up.
type state struct {
	cfg simulator.Config
	p   topology.Params

	n, N, L int
	single  bool

	rng    ctrrng.RNG
	queues [][]pkt // one FIFO slice per link
	toOf   []int   // destination switch of each link at the next stage

	blocked   []bool // static blockage snapshot
	failUntil []int  // first cycle a transiently failed link works again
	now       int

	switchBusy []bool // (n+1)*N; stage-s switch busy flags, s counted from 1
	burstOn    []bool

	loadT, hotT, faultT, burstStopT, burstStartT uint64
	dstMask                                      uint64

	injected, delivered, dropped, refused int
	forwards                              []int
	maxQueue                              int
	queueSum, queueSamples                int64

	lat      stats.Stream
	latClamp int
}

// Run executes cfg on the reference simulator and returns metrics with
// the same meaning (and, for FaultRate == 0, the same values) as
// simulator.Run.
func Run(cfg simulator.Config) (simulator.Metrics, error) {
	if err := simulator.Validate(cfg); err != nil {
		return simulator.Metrics{}, err
	}
	p, err := topology.NewParams(cfg.N)
	if err != nil {
		return simulator.Metrics{}, err
	}
	if cfg.Bursty { // the documented sojourn defaults, as in the optimized core
		if cfg.BurstOn <= 0 {
			cfg.BurstOn = 10
		}
		if cfg.BurstOff <= 0 {
			cfg.BurstOff = 10
		}
	}
	n, N := p.Stages(), cfg.N
	L := 3 * N * n
	s := &state{
		cfg:        cfg,
		p:          p,
		n:          n,
		N:          N,
		L:          L,
		single:     cfg.Switches == simulator.SingleInput,
		queues:     make([][]pkt, L),
		toOf:       make([]int, L),
		blocked:    make([]bool, L),
		failUntil:  make([]int, L),
		switchBusy: make([]bool, (n+1)*N),
		forwards:   make([]int, L),
		loadT:      ctrrng.BernoulliThreshold(cfg.Load),
		hotT:       ctrrng.BernoulliThreshold(cfg.HotspotFrac),
		faultT:     ctrrng.BernoulliThreshold(cfg.FaultRate),
		dstMask:    uint64(N - 1),
	}
	for idx := 0; idx < L; idx++ {
		l := topology.LinkFromIndex(p, idx)
		s.toOf[idx] = l.To(p)
		if cfg.Blocked != nil && cfg.Blocked.Blocked(l) {
			s.blocked[idx] = true
		}
	}
	latBuckets := cfg.Warmup + cfg.Cycles + 1
	if latBuckets > 1<<16 {
		latBuckets = 1 << 16
	}
	s.lat = stats.NewStream(1, latBuckets)
	s.latClamp = latBuckets - 1

	// Initial burst states use the optimized core's coordinates:
	// (cycle 0, source, drawBurstInit).
	s.rng = ctrrng.New(cfg.Seed)
	if cfg.Bursty {
		s.burstOn = make([]bool, N)
		s.burstStopT = ctrrng.BernoulliThreshold(1 / float64(cfg.BurstOn))
		s.burstStartT = ctrrng.BernoulliThreshold(1 / float64(cfg.BurstOff))
		for i := range s.burstOn {
			s.burstOn[i] = s.rng.Bit(0, uint64(i), drawBurstInit)
		}
	}

	total := cfg.Warmup + cfg.Cycles
	for cycle := 0; cycle < total; cycle++ {
		s.step(cycle, cycle >= cfg.Warmup)
	}
	return s.finish(), nil
}

// linkBlocked reports whether a link is statically blocked or transiently
// failed at the current cycle.
func (s *state) linkBlocked(idx int) bool {
	return s.blocked[idx] || s.failUntil[idx] > s.now
}

// chooseQueue picks the output buffer of switch sw at the given stage for
// a packet to dst: the straight link when the stage's address bit already
// matches, otherwise one of the nonstraight links by policy, skipping
// blocked links (ok=false when none is usable). The decision ladder and
// the RandomState draw coordinates (cycle, entity, purpose) mirror the
// optimized core exactly.
func (s *state) chooseQueue(stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
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
		lp, lm := len(s.queues[plus]), len(s.queues[minus])
		switch {
		case lp < lm:
			return plus, true
		case lm < lp:
			return minus, true
		default:
			if (sw>>uint(stage))&1 == 0 {
				return plus, true
			}
			return minus, true
		}
	}
}

// push appends pk to the out queue if it has room, tracking the maximum
// occupancy ever seen (warmup included, as in the optimized core).
func (s *state) push(out int, pk pkt) bool {
	if len(s.queues[out]) >= s.cfg.QueueCap {
		return false
	}
	s.queues[out] = append(s.queues[out], pk)
	if l := len(s.queues[out]); l > s.maxQueue {
		s.maxQueue = l
	}
	return true
}

// step advances one cycle: faults, delivery from the last stage, the
// intermediate stages from the output side back, then injection —
// visiting links in ascending dense index within each phase, the same
// sweep order as the optimized core.
func (s *state) step(cycle int, measured bool) {
	s.now = cycle
	if s.single {
		for i := range s.switchBusy {
			s.switchBusy[i] = false
		}
	}
	// One Bernoulli draw per link per cycle, keyed (cycle, link) under the
	// refsim-only refFault domain; a hit on an already-failed link is
	// discarded, so every *working* link fails with exactly FaultRate per
	// cycle — the semantics the optimized core reproduces by geometric
	// skip-sampling over its own fault domain (the draws differ, so fault
	// configs are compared statistically, not exactly).
	if s.cfg.FaultRate > 0 {
		for idx := 0; idx < s.L; idx++ {
			if s.rng.Hit(s.faultT, uint64(cycle), uint64(idx), refFault) && s.failUntil[idx] <= cycle {
				s.failUntil[idx] = cycle + s.cfg.RepairCycles
			}
		}
	}
	// Deliver from the last stage.
	outBusyBase := s.n * s.N
	for idx := (s.n - 1) * s.N * 3; idx < s.L; idx++ {
		if len(s.queues[idx]) == 0 {
			continue
		}
		to := s.toOf[idx]
		if s.single && s.switchBusy[outBusyBase+to] {
			continue // output switch already consumed a packet this cycle
		}
		pk := s.queues[idx][0]
		s.queues[idx] = s.queues[idx][1:]
		if pk.dst != to {
			panic(fmt.Sprintf("refsim: packet for %d delivered to %d via %v",
				pk.dst, to, topology.LinkFromIndex(s.p, idx)))
		}
		if s.single {
			s.switchBusy[outBusyBase+to] = true
		}
		if measured {
			s.delivered++
			lat := cycle - pk.born
			if lat > s.latClamp {
				lat = s.latClamp
			}
			s.lat.AddInt(lat)
			s.forwards[idx]++
		}
	}
	// Advance intermediate stages, highest first, so a packet moves at
	// most one stage per cycle.
	for i := s.n - 2; i >= 0; i-- {
		busyBase := (i + 1) * s.N
		base := i * s.N * 3
		for idx := base; idx < base+3*s.N; idx++ {
			if len(s.queues[idx]) == 0 {
				continue
			}
			at := s.toOf[idx] // switch the packet arrives at (stage i+1)
			if s.single && s.switchBusy[busyBase+at] {
				continue
			}
			pk := s.queues[idx][0]
			out, ok := s.chooseQueue(i+1, at, pk.dst, cycle, uint64(idx), drawRoute)
			if !ok {
				s.queues[idx] = s.queues[idx][1:]
				if measured {
					s.dropped++
				}
				continue
			}
			if s.push(out, pk) {
				s.queues[idx] = s.queues[idx][1:]
				if s.single {
					s.switchBusy[busyBase+at] = true
				}
				if measured {
					s.forwards[idx]++
				}
			}
			// Otherwise the packet stalls in place this cycle.
		}
	}
	// Inject new packets.
	for src := 0; src < s.N; src++ {
		c, e := uint64(cycle), uint64(src)
		if s.cfg.Bursty {
			if s.burstOn[src] {
				if s.rng.Hit(s.burstStopT, c, e, drawBurst) {
					s.burstOn[src] = false
				}
			} else if s.rng.Hit(s.burstStartT, c, e, drawBurst) {
				s.burstOn[src] = true
			}
			if !s.burstOn[src] {
				continue
			}
		}
		if !s.rng.Hit(s.loadT, c, e, drawLoad) {
			continue
		}
		var dst int
		if s.cfg.Traffic == simulator.Uniform {
			dst = s.rng.Intn(s.dstMask, c, e, drawDst)
		} else {
			dst = s.pickDestination(src, cycle)
		}
		out, ok := s.chooseQueue(0, src, dst, cycle, e, drawRouteInj)
		if !ok {
			if measured {
				s.dropped++
			}
			continue
		}
		if s.push(out, pkt{dst: dst, born: cycle}) {
			if measured {
				s.injected++
			}
		} else if measured {
			s.refused++
		}
	}
	// Sample queue occupancy the slow way: walk every queue.
	if measured {
		occ := 0
		for _, q := range s.queues {
			occ += len(q)
		}
		s.queueSum += int64(occ)
		s.queueSamples += int64(s.L)
	}
}

// pickDestination draws a destination for a packet from src.
func (s *state) pickDestination(src, cycle int) int {
	c, e := uint64(cycle), uint64(src)
	switch s.cfg.Traffic {
	case simulator.Hotspot:
		if s.rng.Hit(s.hotT, c, e, drawHot) {
			return s.cfg.HotspotDest
		}
		return s.rng.Intn(s.dstMask, c, e, drawDst)
	case simulator.PermutationTraffic:
		return s.cfg.Perm[src]
	case simulator.BitComplementTraffic:
		return s.N - 1 - src
	case simulator.Tornado:
		return (src + s.N/2 - 1) % s.N
	default:
		return s.rng.Intn(s.dstMask, c, e, drawDst)
	}
}

// finish assembles the Metrics with the same derivations (and stream
// geometries) as the optimized core.
func (s *state) finish() simulator.Metrics {
	m := simulator.Metrics{
		Injected:  s.injected,
		Delivered: s.delivered,
		Dropped:   s.dropped,
		Refused:   s.refused,
		MaxQueue:  s.maxQueue,
	}
	m.Throughput = float64(s.delivered) / float64(s.cfg.Cycles) / float64(s.N)
	if s.queueSamples > 0 {
		m.MeanQueue = float64(s.queueSum) / float64(s.queueSamples)
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
	m.Latency = s.lat
	m.UtilStraight = utilS
	m.UtilNonstraight = utilN
	return m
}
