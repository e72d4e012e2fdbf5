package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"iadm/internal/blockage"
	"iadm/internal/simulator"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// Sim-sweep sizes. A request of both engines takes a few tens of
// milliseconds, so a run measures several hundred of them; the wormhole
// engine costs about three times the packet simulator per switch-cycle, so
// it runs a smaller network. Each worker runs two replicas of each engine
// per request: while the host stalls one worker, the others take its second
// replica, so a short stall does not double the request's time.
const (
	simPacketCycles   = 30
	simFlitCycles     = 30
	simFlitN          = 256
	replicasPerWorker = 2
)

// simPlan is the sim-sweep's fixed configuration pair: the packet
// simulator at N=1024 and the wormhole engine at N=256 with two virtual
// lanes, both loaded near saturation and with link faults blocked. A
// request runs replicasPerWorker replicas per worker of each, through
// RunManyWorkers with IntraWorkers 1. The runs have no warm-up window, so
// each run's totals must balance exactly.
type simPlan struct {
	pkt     simulator.Config
	wh      wormhole.Config
	workers int
}

func newSimPlan(seed int64, workers int) (simPlan, error) {
	pl, err := newPlan(simSweep, seed)
	if err != nil {
		return simPlan{}, err
	}
	blk := blockage.NewSet(pl.p)
	whP := topology.MustParams(simFlitN)
	whBlk := blockage.NewSet(whP)
	for _, l := range pl.faults {
		blk.Block(l)
		if whP.ValidStage(l.Stage) {
			whBlk.Block(topology.Link{Stage: l.Stage, From: l.From % simFlitN, Kind: l.Kind})
		}
	}
	return simPlan{
		pkt: simulator.Config{
			N: netSize, Policy: simulator.AdaptiveSSDT, Load: 0.7, QueueCap: 4,
			Cycles: simPacketCycles, Seed: seed, Blocked: blk, IntraWorkers: 1,
		},
		wh: wormhole.Config{
			N: simFlitN, Policy: simulator.AdaptiveSSDT, Load: 0.3, PacketFlits: 4, Lanes: 2, LaneDepth: 4,
			Cycles: simFlitCycles, Seed: seed, Blocked: whBlk, IntraWorkers: 1,
		},
		workers: workers,
	}, nil
}

// replicas is how many runs of each engine one request makes.
func (sp simPlan) replicas() int { return replicasPerWorker * sp.workers }

// errNotConserved marks a run whose own totals do not balance: a wrong
// answer, not a failure.
var errNotConserved = errors.New("totals not conserved")

// simResult sums one engine's replicas of one request.
type simResult struct {
	delivered, cycles int64
}

// packets runs request k's packet-simulator replicas.
func (sp simPlan) packets(k int) (simResult, error) {
	cfgs := make([]simulator.Config, sp.replicas())
	for i := range cfgs {
		cfgs[i] = sp.pkt
		cfgs[i].Seed = sp.pkt.Seed + int64(k*len(cfgs)+i)
	}
	ms, err := simulator.RunManyWorkers(cfgs, sp.workers)
	if err != nil {
		return simResult{}, err
	}
	capacity := 3 * netSize * sp.pkt.Blocked.Params().Stages() * sp.pkt.QueueCap
	r := simResult{cycles: int64(len(cfgs) * sp.pkt.Cycles)}
	for i, m := range ms {
		if err := conserved(m.Injected, m.Delivered, m.Dropped, m.Latency.N(), capacity); err != nil {
			return simResult{}, fmt.Errorf("packet run seed %d: %w", cfgs[i].Seed, err)
		}
		r.delivered += int64(m.Delivered)
	}
	return r, nil
}

// worms runs request k's wormhole replicas; flits must balance too.
func (sp simPlan) worms(k int) (simResult, error) {
	cfgs := make([]wormhole.Config, sp.replicas())
	for i := range cfgs {
		cfgs[i] = sp.wh
		cfgs[i].Seed = sp.wh.Seed + int64(k*len(cfgs)+i)
	}
	ms, err := wormhole.RunManyWorkers(cfgs, sp.workers)
	if err != nil {
		return simResult{}, err
	}
	slots := 3 * simFlitN * sp.wh.Blocked.Params().Stages() * sp.wh.Lanes * sp.wh.LaneDepth
	r := simResult{cycles: int64(len(cfgs) * sp.wh.Cycles)}
	for i, m := range ms {
		err := conserved(m.Injected, m.Delivered, m.Dropped, m.Latency.N(), slots)
		if err == nil {
			err = conserved(m.FlitsInjected, m.FlitsDelivered, m.FlitsDropped, m.FlitsDelivered, slots)
		}
		if err == nil && m.FlitsDelivered < m.Delivered*sp.wh.PacketFlits {
			err = fmt.Errorf("%w: %d flits delivered for %d packets of %d flits", errNotConserved, m.FlitsDelivered, m.Delivered, sp.wh.PacketFlits)
		}
		if err != nil {
			return simResult{}, fmt.Errorf("wormhole run seed %d: %w", cfgs[i].Seed, err)
		}
		r.delivered += int64(m.Delivered)
	}
	return r, nil
}

// conserved checks one run's own totals: every delivery was injected in
// the window, what is neither delivered nor dropped still fits in the
// buffers, and each delivery left one latency sample.
func conserved(injected, delivered, dropped, samples, capacity int) error {
	switch {
	case delivered > injected:
		return fmt.Errorf("%w: %d delivered of %d injected", errNotConserved, delivered, injected)
	case injected-delivered-dropped > capacity:
		return fmt.Errorf("%w: %d in flight exceeds the %d buffer slots", errNotConserved, injected-delivered-dropped, capacity)
	case samples != delivered:
		return fmt.Errorf("%w: %d latency samples for %d deliveries", errNotConserved, samples, delivered)
	}
	return nil
}

// runs counts n simulator runs that ended with err.
func (t *tally) runs(n int, err error) {
	t.attempted += int64(n)
	switch {
	case errors.Is(err, errNotConserved):
		t.bad(err)
	case err != nil:
		t.failed += int64(n)
	}
}

// simRequest is one sim-sweep request: both engines' replicas.
type simRequest struct {
	pkt, wh     simResult
	pktNs, whNs int64
}

func (sp simPlan) request(k int, sum *tally) simRequest {
	var q simRequest
	t0 := time.Now()
	pr, err := sp.packets(k)
	sum.runs(sp.replicas(), err)
	t1 := time.Now()
	wr, err := sp.worms(k)
	sum.runs(sp.replicas(), err)
	t2 := time.Now()
	q.pkt, q.wh = pr, wr
	q.pktNs, q.whNs = t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	return q
}

// simRun is the untraced run of the sim-sweep.
func simRun(pl *plan, d time.Duration) (outcome, error) {
	var out outcome
	var setups []float64
	var sp simPlan
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		if sp, err = newSimPlan(pl.seed, runtime.GOMAXPROCS(0)); err != nil {
			return out, err
		}
		sp.request(-1-i, &out.sum)
		setups = append(setups, time.Since(t0).Seconds())
	}
	heap := liveHeapMiB()
	var samples []sample
	var total simRequest
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		t0 := time.Now()
		q := sp.request(k, &out.sum)
		t1 := time.Now()
		samples = append(samples, sample{us: micros(t1.Sub(t0)), routed: q.pkt.delivered + q.wh.delivered, at: t1})
		total.pkt.cycles += q.pkt.cycles
		total.wh.cycles += q.wh.cycles
		total.pktNs += q.pktNs
		total.whNs += q.whNs
	}
	out.vals, out.notes = requestStats([][]sample{samples}, start, time.Since(start))
	out.vals["setup_s"] = quantile(setups, 0.5)
	out.vals["live_heap_mb"] = heap
	out.notes = append(out.notes,
		note{"packet_cycles_per_s", "1/s", float64(total.pkt.cycles) / (float64(total.pktNs) / 1e9)},
		note{"flit_cycles_per_s", "1/s", float64(total.wh.cycles) / (float64(total.whNs) / 1e9)})
	return out, nil
}
