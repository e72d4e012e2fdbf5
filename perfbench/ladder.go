package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/fleet"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// probeFaults is how many links the router rung faults and repairs on
// probeNet, a net no request routes on, so that every workload measures the
// fault fan-out, whether or not its own stream mutates.
const probeFaults = 8

// Shares of the traced run's seconds. The served phases run twice:
// untraced, then traced.
const (
	shareCore     = 0.05
	shareCtl      = 0.05
	shareService  = 0.08
	shareRecorder = 0.08
	shareLoopback = 0.10
	shareRouter   = 0.12
	shareServed   = 0.20
	shareSim      = 0.12
)

// sink keeps kernel results live.
var sink int

// ladder is the traced run. It replays the workload's own request stream
// rung by rung, each rung one layer further from the kernel: core,
// controller, Service, handler via recorder, loopback, router. It then runs
// the workload as the untraced run does, with all its clients, once
// untraced and once traced, for the tracing overhead; and last it runs the
// simulators. The rungs before the served phases run one client, so a
// span one layer down can name the span that caused it.
func ladder(pl *plan, clients int, d time.Duration) (outcome, error) {
	part := func(share float64) time.Duration { return time.Duration(share * float64(d)) }
	tr := newTracer()
	var out outcome
	coreRung(pl, tr, part(shareCore))
	controllerRung(pl, tr, part(shareCtl))
	serviceRung(pl, tr, part(shareService), &out.sum)
	recorderRung(pl, tr, part(shareRecorder), &out.sum)
	if err := loopbackRung(pl, tr, part(shareLoopback), &out.sum); err != nil {
		return out, err
	}
	routed, fm, err := routerRung(pl, tr, part(shareRouter), &out.sum)
	if err != nil {
		return out, err
	}
	sp, err := newSimPlan(pl.seed, runtime.GOMAXPROCS(0))
	if err != nil {
		return out, err
	}
	var ph phases
	if pl.workload == simSweep {
		ph = simPhases(sp, tr, part(shareServed), &out.sum)
		ph.svc = routed
	} else if ph, err = servedPhases(pl, clients, tr, part(shareServed), &out.sum); err != nil {
		return out, err
	}
	pktAllocs := engineRung(tr, "simulator.run", part(shareSim)/2, func(k int) (simResult, error) { return sp.packets(k) }, sp.replicas(), &out.sum)
	whAllocs := engineRung(tr, "wormhole.run", part(shareSim)/2, func(k int) (simResult, error) { return sp.worms(k) }, sp.replicas(), &out.sum)

	sm := ph.svc
	lb, lh := tr.get("loopback.client"), tr.get("loopback.handler")
	out.vals = map[string]float64{
		"core.follow_ns":                 tr.get("core.follow").nsPerItem(),
		"core.sliced_ns_per_route":       tr.get("core.sliced").nsPerItem(),
		"controller.reroute_ns":          tr.get("controller.reroute").nsPerItem(),
		"controller.hit_rate":            ratio(float64(sm.Controller.Hits), float64(sm.Controller.Hits+sm.Controller.Misses)),
		"routesvc.service_ns_per_route":  tr.get("routesvc.service").nsPerItem(),
		"routesvc.ssdt_hit_rate":         ratio(float64(sm.SSDT.Hits), float64(sm.SSDT.Hits+sm.SSDT.Misses)),
		"routesvc.tsdt_hit_rate":         ratio(float64(sm.TSDT.Hits), float64(sm.TSDT.Hits+sm.TSDT.Misses)),
		"routesvc.coalesced_share":       ratio(float64(sm.SSDT.Coalesced+sm.TSDT.Coalesced), float64(sm.SSDT.Hits+sm.SSDT.Misses+sm.TSDT.Hits+sm.TSDT.Misses)),
		"routesvc.admission_shed_share":  ratio(float64(sm.Admission.Shed), float64(sm.Admission.Shed+sm.Admission.Admitted)),
		"routesvc.stale_entry_share":     ratio(float64(sm.CacheEntriesStale), float64(sm.CacheEntriesLive+sm.CacheEntriesStale)),
		"routesvc.sliced_lane_fill":      ratio(float64(sm.SlicedLanes), float64(sm.SlicedBlocks*core.Lanes)),
		"routesvc.handler_us":            lh.meanUs(),
		"routesvc.recorder_ns_per_route": tr.get("routesvc.recorder").nsPerItem(),
		"routesvc.encode_ns_per_route":   tr.get("codec.encode").nsPerItem(),
		"routesvc.decode_ns_per_route":   tr.get("codec.decode").nsPerItem(),
		"net.loopback_us":                ratio(float64(lb.ns-lh.ns), float64(lb.n)) / 1e3,
		"fleet.self_us":                  tr.get("router.fleet.self").meanUs(),
		"fleet.sub_batches_per_batch":    ratio(float64(fm.SubBatches), float64(fm.Batches)),
		"fleet.ring_owner_ns":            tr.get("fleet.ring_owner").nsPerItem(),
		"fleet.fault_fanout_us":          tr.get("router.fleet.mutate").meanUs(),
		"fleet.fault_ack_us":             tr.get("router.client.mutate").meanUs(),
		"fleet.retries":                  float64(fm.Retries),
		"fleet.hedges":                   float64(fm.Hedges),
		"go.allocs_per_route":            ph.allocsPerRoute,
		"go.bytes_per_route":             ph.bytesPerRoute,
		"go.gc_cpu_fraction":             ph.gcCPU,
		"simulator.ns_per_cycle":         tr.get("simulator.run").nsPerItem(),
		"wormhole.ns_per_cycle":          tr.get("wormhole.run").nsPerItem(),
		"simulator.allocs_per_cycle":     pktAllocs,
		"wormhole.allocs_per_cycle":      whAllocs,
		"trace.routes_per_s":             ph.traced,
		"trace.overhead_share":           1 - ratio(ph.traced, ph.untraced),
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", pl.workload, pl.seed))
	if err := tr.write(path); err != nil {
		return out, err
	}
	out.notes = []note{
		{"untraced_routes_per_s", "1/s", ph.untraced},
		{"spans_written", "count", float64(len(tr.spans))},
	}
	return out, nil
}

// gather draws ops from s until they hold at least n route items, and
// returns the items with the end of each op's run of them. Timing many ops
// per span keeps the clock's own cost out of a kernel's figure.
func gather(s *stream, n int, items []item, ends []int) ([]item, []int) {
	items, ends = items[:0], ends[:0]
	for len(items) < n {
		items = append(items, s.next().items...)
		ends = append(ends, len(items))
	}
	return items, ends
}

// coreRung times the kernels a served route ends in, on the stream's own
// items: Tag.Follow, as a single runs it, and the 64-lane sliced kernel
// (LoadTags, RouteTSDTSliced, PathsInto), as a batch runs it, in blocks of
// the stream's request size. Fault reports do not reach the kernels.
func coreRung(pl *plan, tr *tracer, d time.Duration) {
	p := pl.p
	s := newStream(pl, 0)
	var (
		lb    core.LaneBlock
		srcs  [core.Lanes]int
		tags  [core.Lanes]core.Tag
		pp    [core.Lanes]core.PackedPath
		links = make([]topology.Link, 0, p.Stages())
		items []item
		ends  []int
		all   []core.Tag
	)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		items, ends = gather(s, 256, items, ends)
		all = all[:0]
		for _, it := range items {
			all = append(all, core.MustTag(p, it.dst))
		}
		t0 := time.Now()
		for i, it := range items {
			sink += all[i].FollowInto(p, it.src, links).Destination()
		}
		t1 := time.Now()
		start := 0
		for _, end := range ends {
			for base := start; base < end; base += core.Lanes {
				k := min(core.Lanes, end-base)
				for i := 0; i < k; i++ {
					srcs[i], tags[i] = items[base+i].src, all[base+i]
				}
				if err := lb.LoadTags(p, srcs[:k], tags[:k]); err != nil {
					panic(err) // tags built for p always load
				}
				core.RouteTSDTSliced(p, &lb)
				sink += lb.PathsInto(pp[:0])[0].Source()
			}
			start = end
		}
		t2 := time.Now()
		tr.rec(0, "core.follow", 0, t0, t1, len(items))
		tr.rec(0, "core.sliced", 0, t1, t2, len(items))
	}
}

// controllerRung times REROUTE as the service's slow path calls it,
// controller.RouteTag on every TSDT item, with the stream's own fault
// reports applied to the controller's blockage map.
func controllerRung(pl *plan, tr *tracer, d time.Duration) {
	ctl, err := controller.New(netSize)
	if err != nil {
		panic(err) // netSize is a valid network size
	}
	s := newStream(pl, 0)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		o := s.next()
		switch o.kind {
		case opFault:
			ctl.ReportFault(o.link)
			continue
		case opRepair:
			ctl.ReportRepair(o.link)
			continue
		}
		n := 0
		t0 := time.Now()
		for _, it := range o.items {
			if it.scheme == routesvc.SchemeTSDT {
				_, _ = ctl.RouteTag(it.src, it.dst) // an unroutable pair costs a REROUTE too
				n++
			}
		}
		if n > 0 {
			tr.rec(0, "controller.reroute", 0, t0, time.Now(), n)
		}
	}
}

// rungClient is the one client of a rung, warmed up untraced.
func rungClient(pl *plan, t target, name string) *client {
	c := &client{t: t, s: newStream(pl, 0), chk: newChecker(pl.p, checkedNets...), name: name}
	for _, o := range warmup(pl, 0, 1) {
		c.do(o)
	}
	return c
}

// traced replays the client's stream for d with a span per request.
func (c *client) traced(tr *tracer, pr *probe, d time.Duration, sum *tally) {
	c.tr, c.open = tr, &pr.client
	pr.on.Store(true)
	runFor([]*client{c}, d)
	pr.on.Store(false)
	sum.add(c.tally)
	c.tally = tally{}
}

// serviceRung replays the stream into Service.Route and RouteBatch.
func serviceRung(pl *plan, tr *tracer, d time.Duration, sum *tally) {
	m := routesvc.NewMulti(routesvc.Config{N: netSize}, 0)
	defer m.Drain()
	rungClient(pl, &serviceTarget{m: m}, "routesvc.service").traced(tr, &probe{}, d, sum)
}

// recorderRung replays the stream through the handler into a recorder.
func recorderRung(pl *plan, tr *tracer, d time.Duration, sum *tally) {
	m := routesvc.NewMulti(routesvc.Config{N: netSize}, 0)
	defer m.Drain()
	pr := &probe{}
	t := &recorderTarget{h: routesvc.NewMultiHandler(m), tr: tr, on: &pr.on}
	rungClient(pl, t, "recorder.client").traced(tr, pr, d, sum)
}

// loopbackRung replays the stream to one backend over a loopback socket.
// The client's round trip less the backend handler's span is the socket,
// HTTP framing and client codec.
func loopbackRung(pl *plan, tr *tracer, d time.Duration, sum *tally) error {
	pr := &probe{}
	st, err := startStack(1, false, func(_ string, h http.Handler) http.Handler {
		return pr.backend(tr, "loopback.handler", h)
	})
	if err != nil {
		return err
	}
	defer st.close()
	t := newHTTPTarget(st.entry)
	defer t.close()
	rungClient(pl, t, "loopback.client").traced(tr, pr, d, sum)
	return nil
}

// routerRung replays the stream through the router to three backends, then
// times Ring.Owner on the stream's items and faults and repairs links on
// probeNet. It returns the backends' service counters over the replay and
// the router's own.
func routerRung(pl *plan, tr *tracer, d time.Duration, sum *tally) (routesvc.Metrics, fleet.FleetMetricsJSON, error) {
	pr := &probe{}
	st, err := startStack(fleetBackends, true, func(layer string, h http.Handler) http.Handler {
		if layer == "router" {
			return pr.routerSpans(tr, "router.fleet", h)
		}
		return pr.backend(tr, "router.handler", h)
	})
	if err != nil {
		return routesvc.Metrics{}, fleet.FleetMetricsJSON{}, err
	}
	defer st.close()
	t := newHTTPTarget(st.entry)
	defer t.close()
	c := rungClient(pl, t, "router.client")
	before := st.counters()
	c.traced(tr, pr, d*9/10, sum)
	after := st.counters()
	ringRung(pl, st.router.Ring(), tr, d/10)
	pr.on.Store(true)
	for _, o := range probeOps(pl) {
		c.do(o)
	}
	pr.on.Store(false)
	sum.add(c.tally)
	return since(after, before), st.router.Metrics().Fleet, nil
}

// probeOps faults and then repairs each of probeFaults seeded links.
func probeOps(pl *plan) []op {
	rng := rand.New(rand.NewSource(mix(pl.seed, -1000)))
	var ops []op
	for i := 0; i < probeFaults; i++ {
		l := randomNonstraight(rng, pl.p)
		ops = append(ops, op{kind: opFault, net: probeNet, link: l}, op{kind: opRepair, net: probeNet, link: l})
	}
	return ops
}

// ringRung times the router's placement lookup, Ring.Owner.
func ringRung(pl *plan, ring *fleet.Ring, tr *tracer, d time.Duration) {
	s := newStream(pl, 0)
	var items []item
	var ends []int
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		items, ends = gather(s, 256, items, ends)
		t0 := time.Now()
		for _, it := range items {
			b, _ := ring.Owner(it.net, it.src, it.dst)
			sink += b
		}
		tr.rec(0, "fleet.ring_owner", 0, t0, time.Now(), len(items))
	}
}

// since is the change in the service counters the ladder reports between
// two snapshots; cache occupancy is taken from the later one.
func since(a, b routesvc.Metrics) routesvc.Metrics {
	a.SSDT.Hits -= b.SSDT.Hits
	a.SSDT.Misses -= b.SSDT.Misses
	a.SSDT.Coalesced -= b.SSDT.Coalesced
	a.TSDT.Hits -= b.TSDT.Hits
	a.TSDT.Misses -= b.TSDT.Misses
	a.TSDT.Coalesced -= b.TSDT.Coalesced
	a.Admission.Shed -= b.Admission.Shed
	a.Admission.Admitted -= b.Admission.Admitted
	a.SlicedLanes -= b.SlicedLanes
	a.SlicedBlocks -= b.SlicedBlocks
	a.Controller.Hits -= b.Controller.Hits
	a.Controller.Misses -= b.Controller.Misses
	return a
}

// phases is what the workload's own untraced and traced phases measured.
type phases struct {
	untraced, traced float64          // routes per second
	svc              routesvc.Metrics // service counters over the untraced phase
	allocsPerRoute   float64
	bytesPerRoute    float64
	gcCPU            float64
}

// servedPhases runs a serving workload as its untraced run does, with all
// its clients, first untraced and then with spans at the clients, the
// backends and the router.
func servedPhases(pl *plan, clients int, tr *tracer, d time.Duration, sum *tally) (phases, error) {
	var ph phases
	pr := &probe{}
	sv, err := startServing(pl, clients, func(layer string, h http.Handler) http.Handler {
		return pr.plain(tr, "served."+layer, h)
	})
	if err != nil {
		return ph, err
	}
	defer sv.close()
	warm(pl, sv.cs)
	settle(sv.cs, sum)
	before, m0 := sv.st.counters(), readMem()
	_, elapsed := runFor(sv.cs, d)
	m1, after := readMem(), sv.st.counters()
	var untraced tally
	for _, c := range sv.cs {
		untraced.add(c.tally)
	}
	settle(sv.cs, sum)
	ph.untraced = float64(untraced.routed) / elapsed.Seconds()
	ph.svc = since(after, before)
	ph.setMem(m0, m1, untraced.routed)

	pr.on.Store(true)
	for _, c := range sv.cs {
		c.tr = tr
	}
	_, elapsed = runFor(sv.cs, d)
	var traced tally
	for _, c := range sv.cs {
		traced.add(c.tally)
	}
	settle(sv.cs, sum)
	ph.traced = float64(traced.routed) / elapsed.Seconds()
	return ph, nil
}

// simPhases is servedPhases for the sim-sweep: whole requests, untraced
// and then with a span per request. Its routes are delivered messages.
func simPhases(sp simPlan, tr *tracer, d time.Duration, sum *tally) phases {
	var ph phases
	run := func(traced bool) (float64, int64) {
		var delivered int64
		start := time.Now()
		for k := 0; time.Since(start) < d; k++ {
			t0 := time.Now()
			q := sp.request(k, sum)
			n := q.pkt.delivered + q.wh.delivered
			if traced {
				tr.rec(0, "sim.request", 0, t0, time.Now(), int(n))
			}
			delivered += n
		}
		return float64(delivered) / time.Since(start).Seconds(), delivered
	}
	m0 := readMem()
	var delivered int64
	ph.untraced, delivered = run(false)
	ph.setMem(m0, readMem(), delivered)
	ph.traced, _ = run(true)
	return ph
}

// engineRung runs one engine's replicas alone for d, with a span per call
// whose items are the cycles simulated, and returns allocations per cycle.
func engineRung(tr *tracer, name string, d time.Duration, runK func(int) (simResult, error), replicas int, sum *tally) float64 {
	var cycles int64
	m0 := readMem()
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		t0 := time.Now()
		r, err := runK(k)
		tr.rec(0, name, 0, t0, time.Now(), int(r.cycles))
		sum.runs(replicas, err)
		cycles += r.cycles
	}
	m1 := readMem()
	return ratio(float64(m1.mallocs-m0.mallocs), float64(cycles))
}

// memMark is the process's allocation and CPU counters at one instant.
type memMark struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64 // seconds
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	for i, name := range cpuSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	m := memMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU, m.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return m
}

func (ph *phases) setMem(m0, m1 memMark, routes int64) {
	ph.allocsPerRoute = ratio(float64(m1.mallocs-m0.mallocs), float64(routes))
	ph.bytesPerRoute = ratio(float64(m1.bytes-m0.bytes), float64(routes))
	ph.gcCPU = ratio(m1.gcCPU-m0.gcCPU, m1.cpu-m0.cpu)
}
