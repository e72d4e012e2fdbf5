package simulator

import (
	"fmt"

	"iadm/internal/fanout"
	"iadm/internal/topology"
)

// The sharded engine steps one run's cycles on IntraWorkers goroutines
// while producing bit-identical metrics to the sequential engine, for any
// shard count. Two properties make that possible:
//
//  1. Every random draw is a pure function of (seed, cycle, entity,
//     purpose) — see rng.go — so a draw's value does not depend on which
//     worker evaluates it or when.
//
//  2. Ownership sharding: each phase partitions the 0..N-1 switch columns
//     into contiguous ranges, and a worker touches only state owned by
//     its columns. The deliver phase owns output ports, the per-stage
//     phases own the receiving switches of that stage's links, and the
//     inject phase owns sources. A link is popped only by the owner of
//     its receiving switch; pushes target only the owner's own output
//     queues; AdaptiveSSDT reads only the owner's queue lengths. In the
//     sequential sweep, operations on different receiving switches
//     commute (disjoint queues, counter increments), and the projection
//     of the ascending-link-index sweep onto any single receiving switch
//     is "its incoming links in ascending dense index" — exactly the
//     order the prebuilt `in` table stores. Barriers between phases keep
//     a stage's pushes from racing the next stage's pops.
//
// Per-shard accumulators are cumulative over the run and merged by exact
// integer sums/maxes after each cycle (mergeCycle is a pure recompute),
// so merged metrics are independent of both worker count and merge
// timing. The latency histogram is summed once at end of run. The
// occupancy bitset is not maintained in shard mode (its 64-link words
// straddle shard boundaries); the workers go through pushQuiet/popQuiet
// and iterate the `in` table instead.
//
// The phases run on fanout.Pool, whose helper goroutines are persistent:
// they park between runs and synchronize phases through an atomic
// counter with a brief spin before yielding, so a steady-state Runner run
// still performs zero heap allocations.

// shardState is one shard's accumulator set. All counter fields are
// cumulative from cycle 0 of the current run; mergeCycle recomputes the
// sim-level totals from them, which keeps the merge order-independent
// and lets the simcheck build verify the totals against the shard sums.
// The pad keeps adjacent shards' hot counters off one cache line.
type shardState struct {
	injected, delivered, dropped, refused int64
	occDelta                              int64 // net queued-packet delta (injected - delivered - droppedInFlight)
	ckInjected, ckDelivered, ckDropped    int64 // conservation shadow counters (warmup included)
	maxQueue                              int32
	latHist                               []int32
	_                                     [64]byte
}

func (sh *shardState) reset() {
	sh.injected, sh.delivered, sh.dropped, sh.refused = 0, 0, 0, 0
	sh.occDelta = 0
	sh.ckInjected, sh.ckDelivered, sh.ckDropped = 0, 0, 0
	sh.maxQueue = 0
	clear(sh.latHist)
}

// buildSharding prepares the sharded engine: the per-switch incoming-link
// table, the contiguous column partition, the per-shard accumulators, and
// the worker pool.
func (s *sim) buildSharding(latBuckets int) {
	s.in = make([]int32, s.n*s.N*3)
	fill := make([]int8, s.n*s.N)
	for idx := 0; idx < s.L; idx++ {
		stage := idx / (3 * s.N)
		row := stage*s.N + int(s.toOf[idx]) // receiving switch is at stage+1; rows are (r-1)*N+sw
		s.in[row*3+int(fill[row])] = int32(idx)
		fill[row]++
	}
	for row, c := range fill {
		if c != 3 {
			panic(fmt.Sprintf("simulator: switch row %d has %d incoming links, want 3", row, c))
		}
	}
	P := s.intraP
	s.shardLo = make([]int32, P+1)
	for k := 0; k <= P; k++ {
		s.shardLo[k] = int32(k * s.N / P)
	}
	s.shards = make([]shardState, P)
	for k := range s.shards {
		s.shards[k].latHist = make([]int32, latBuckets)
	}
	s.pool = fanout.NewPool(P, s.runShardPhase)
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

// runSharded is the sharded counterpart of the sequential cycle loop in
// run(): the same phases in the same order, with barriers between them
// and a deterministic merge after each cycle.
func (s *sim) runSharded() Metrics {
	total := s.cfg.Warmup + s.cfg.Cycles
	s.pool.Unpark()
	for cycle := 0; cycle < total; cycle++ {
		measured := cycle >= s.cfg.Warmup
		s.nowCycle = cycle
		if s.faulty {
			s.stepFaults(cycle) // sequential: O(faults), read-only during phases
		}
		s.pool.Dispatch(fanout.Phase{Kind: fanout.Deliver, Cycle: cycle, Measured: measured})
		for i := s.n - 2; i >= 0; i-- {
			s.pool.Dispatch(fanout.Phase{Kind: fanout.Stage, Stage: i, Cycle: cycle, Measured: measured})
		}
		s.pool.Dispatch(fanout.Phase{Kind: fanout.Inject, Cycle: cycle, Measured: measured})
		s.mergeCycle()
		if measured {
			s.queueSum += s.occupied
			s.queueSamples += int64(s.L)
		}
		if s.check {
			s.checkInvariants(cycle)
		}
	}
	s.pool.Park()
	for k := range s.shards {
		for v, c := range s.shards[k].latHist {
			s.latHist[v] += c
		}
	}
	if s.check {
		s.checkShardMerge()
	}
	return s.finish()
}

// mergeCycle recomputes the sim-level totals from the cumulative
// per-shard accumulators: exact integer sums and maxes, so the result is
// identical for every shard count and unaffected by when the merge runs.
func (s *sim) mergeCycle() {
	var inj, del, drop, ref, occ int64
	var ckI, ckD, ckX int64
	var mq int32
	for k := range s.shards {
		sh := &s.shards[k]
		inj += sh.injected
		del += sh.delivered
		drop += sh.dropped
		ref += sh.refused
		occ += sh.occDelta
		ckI += sh.ckInjected
		ckD += sh.ckDelivered
		ckX += sh.ckDropped
		if sh.maxQueue > mq {
			mq = sh.maxQueue
		}
	}
	s.m.Injected, s.m.Delivered, s.m.Dropped, s.m.Refused = int(inj), int(del), int(drop), int(ref)
	s.occupied = occ
	s.ck = invariantCounters{injected: ckI, delivered: ckD, dropped: ckX}
	s.maxQueue = mq
}

// shardDeliver pops the last stage's links into the output ports owned by
// shard k (SingleInput: the first nonempty incoming link wins the cycle).
func (s *sim) shardDeliver(k, cycle int, measured bool) {
	sh := &s.shards[k]
	rowBase := (s.n - 1) * s.N
	for to := int(s.shardLo[k]); to < int(s.shardLo[k+1]); to++ {
		inBase := (rowBase + to) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.in[inBase+j])
			if s.q.len(idx) == 0 {
				continue
			}
			if s.singleInput && passed {
				continue
			}
			pk := s.q.popQuiet(idx)
			sh.occDelta--
			if s.check {
				sh.ckDelivered++
			}
			if int(pk.dst) != to {
				panic(fmt.Sprintf("simulator: packet for %d delivered to %d via %v",
					pk.dst, to, topology.LinkFromIndex(s.p, idx)))
			}
			passed = true
			if measured {
				sh.delivered++
				lat := cycle - int(pk.born)
				if lat >= len(sh.latHist) {
					lat = len(sh.latHist) - 1
				}
				sh.latHist[lat]++
				s.forwards[idx]++
			}
		}
	}
}

// shardStage advances stage i's links into the stage-i+1 switches owned
// by shard k.
func (s *sim) shardStage(k, i, cycle int, measured bool) {
	sh := &s.shards[k]
	rowBase := i * s.N
	for at := int(s.shardLo[k]); at < int(s.shardLo[k+1]); at++ {
		inBase := (rowBase + at) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.in[inBase+j])
			if s.q.len(idx) == 0 {
				continue
			}
			if s.singleInput && passed {
				continue
			}
			pk := s.q.front(idx)
			out, ok := s.chooseQueue(i+1, at, int(pk.dst), cycle, uint64(idx), drawRoute)
			if !ok {
				s.q.popQuiet(idx)
				sh.occDelta--
				if s.check {
					sh.ckDropped++
				}
				if measured {
					sh.dropped++
				}
				continue
			}
			if ln, pushed := s.q.pushQuiet(out, pk); pushed {
				if ln > sh.maxQueue {
					sh.maxQueue = ln
				}
				s.q.popQuiet(idx)
				passed = true
				if measured {
					s.forwards[idx]++
				}
			}
			// Otherwise the packet stalls in place this cycle.
		}
	}
}

// shardInject runs the injection loop for the sources owned by shard k.
func (s *sim) shardInject(k, cycle int, measured bool) {
	sh := &s.shards[k]
	for src := int(s.shardLo[k]); src < int(s.shardLo[k+1]); src++ {
		c, e := uint64(cycle), uint64(src)
		if s.bursty {
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
		if s.traffic == Uniform {
			dst = s.rng.Intn(s.dstMask, c, e, drawDst)
		} else {
			dst = s.pickDestination(src, cycle)
		}
		out, ok := s.chooseQueue(0, src, dst, cycle, e, drawRouteInj)
		if !ok {
			if measured {
				sh.dropped++
			}
			continue
		}
		if ln, pushed := s.q.pushQuiet(out, packet{dst: int32(dst), born: int32(cycle)}); pushed {
			if ln > sh.maxQueue {
				sh.maxQueue = ln
			}
			sh.occDelta++
			if s.check {
				sh.ckInjected++
			}
			if measured {
				sh.injected++
			}
		} else if measured {
			sh.refused++
		}
	}
}
