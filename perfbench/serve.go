package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"iadm/internal/fleet"
	"iadm/internal/routesvc"
)

const (
	fleetBackends = 3 // backends behind the router
	fleetReplicas = 2 // replicas of each net
	probeNet      = "probe"
	// backendPort is the first backend's port. The router places nets by
	// hashing backend URLs, so fixed ports keep the placement, and with it
	// the load each backend carries, the same from run to run.
	backendPort = 39170
)

// checkedNets are the nets whose answers and epochs a checker tracks.
var checkedNets = append(append([]string(nil), fleetNets...), probeNet)

// server is one in-process HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	base string
	done chan error
}

// listen serves h on port, or on any free port if port is taken.
func listen(h http.Handler, port int) (*server, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close closes the listener and every connection and waits for Serve to
// return.
func (s *server) close() {
	_ = s.srv.Close() // its only error is the listener's, which Serve reports
	<-s.done
}

// stack is the serving system under test, built with the constructors the
// daemons use: routesvc backends as iadmd builds them and, when routed, a
// fleet router over them as iadmfleet builds it. It sets N, the router's
// backends and its replicas; every other setting keeps its default.
type stack struct {
	multis   []*routesvc.Multi
	backends []*server
	router   *fleet.Router
	front    *server
	entry    string // base URL clients send to
}

// wrapper wraps a layer's handler ("backend" or "router") for tracing.
type wrapper func(layer string, h http.Handler) http.Handler

func startStack(backends int, routed bool, wrap wrapper) (*stack, error) {
	st := &stack{}
	var bases []string
	for i := 0; i < backends; i++ {
		m := routesvc.NewMulti(routesvc.Config{N: netSize}, 0)
		var h http.Handler = routesvc.NewMultiHandler(m)
		if wrap != nil {
			h = wrap("backend", h)
		}
		srv, err := listen(h, backendPort+i)
		if err != nil {
			m.Drain()
			st.close()
			return nil, err
		}
		st.multis = append(st.multis, m)
		st.backends = append(st.backends, srv)
		bases = append(bases, srv.base)
	}
	st.entry = bases[0]
	if !routed {
		return st, nil
	}
	rt, err := fleet.New(fleet.Config{Backends: bases, Replicas: fleetReplicas})
	if err == nil {
		err = rt.Probe()
	}
	if err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = rt
	if wrap != nil {
		h = wrap("router", h)
	}
	front, err := listen(h, 0)
	if err != nil {
		st.close()
		return nil, err
	}
	st.router, st.front, st.entry = rt, front, front.base
	return st, nil
}

func (st *stack) close() {
	if st.front != nil {
		st.front.close()
		st.router.Drain()
	}
	for _, b := range st.backends {
		b.close()
	}
	for _, m := range st.multis {
		m.Drain()
	}
}

// counters folds every backend's service counters into one snapshot.
func (st *stack) counters() routesvc.Metrics {
	var out routesvc.Metrics
	for _, m := range st.multis {
		agg, _ := m.Metrics()
		routesvc.MergeMetrics(&out, agg)
	}
	return out
}

// serving is a started stack with its closed-loop clients, one keep-alive
// connection each.
type serving struct {
	st      *stack
	cs      []*client
	targets []*httpTarget
}

// startServing builds the workload's stack: one backend for hot-singles,
// the router over three backends for the fleet workloads.
func startServing(pl *plan, clients int, wrap wrapper) (*serving, error) {
	backends, routed := fleetBackends, true
	if pl.workload == hotSingles {
		backends, routed = 1, false
	}
	st, err := startStack(backends, routed, wrap)
	if err != nil {
		return nil, err
	}
	sv := &serving{st: st}
	chk := newChecker(pl.p, checkedNets...)
	for k := 0; k < clients; k++ {
		t := newHTTPTarget(st.entry)
		sv.targets = append(sv.targets, t)
		sv.cs = append(sv.cs, &client{t: t, s: newStream(pl, k), chk: chk, name: "served.client"})
	}
	return sv, nil
}

func (sv *serving) close() {
	for _, t := range sv.targets {
		t.close()
	}
	sv.st.close()
}

// outcome is one run's measurements.
type outcome struct {
	vals  map[string]float64 // the printed metrics
	notes []note
	sum   tally
}

// setupRuns is how many times a run sets its system up. It reports the
// median set-up time and measures on the last set-up. A set-up takes a
// fraction of a second, so the median of many is what keeps setup_s steady
// on a host whose speed wanders.
const setupRuns = 9

// serveRun is the untraced run of a serving workload.
func serveRun(pl *plan, clients int, d time.Duration) (outcome, error) {
	var out outcome
	var setups []float64
	var sv *serving
	for i := 0; i < setupRuns; i++ {
		if sv != nil {
			sv.close()
		}
		t0 := time.Now()
		var err error
		if sv, err = startServing(pl, clients, nil); err != nil {
			return out, err
		}
		warm(pl, sv.cs)
		setups = append(setups, time.Since(t0).Seconds())
		settle(sv.cs, &out.sum)
	}
	defer sv.close()
	heap := liveHeapMiB()
	start, elapsed := runFor(sv.cs, d)
	var samples [][]sample
	var acks []float64
	var timed tally
	for _, c := range sv.cs {
		samples = append(samples, c.samples)
		acks = append(acks, c.acks...)
		timed.add(c.tally)
	}
	out.sum.add(timed)
	out.vals, out.notes = requestStats(samples, start, elapsed)
	out.vals["setup_s"] = quantile(setups, 0.5)
	out.vals["live_heap_mb"] = heap
	out.notes = append(out.notes, note{"error_rate", "ratio", ratio(float64(timed.failed+timed.invalid), float64(timed.attempted))})
	if len(acks) > 0 {
		out.notes = append(out.notes,
			note{"fault_ack_p50_us", "us", quantile(acks, 0.5)},
			note{"fault_acks", "count", float64(len(acks))})
	}
	return out, nil
}

// liveHeapMiB is the heap still in use after a forced collection. The
// second collection empties the sync.Pools the first only demoted.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
