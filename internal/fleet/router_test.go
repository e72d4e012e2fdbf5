package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

// testFleet is an in-process fleet: real routesvc multi-network backends
// behind httptest servers, fronted by a Router. delays lets tests slow
// one backend down (hedge tests) and garbled makes one answer /route with
// a malformed 200 body; closing a server simulates its death.
type testFleet struct {
	rt      *Router
	multis  []*routesvc.Multi
	srvs    []*httptest.Server
	delays  []*atomic.Int64 // per-backend artificial latency, ns
	garbled []*atomic.Bool
}

func newTestFleet(t *testing.T, nBackends int, cfg Config) *testFleet {
	t.Helper()
	f := &testFleet{}
	bases := make([]string, nBackends)
	for i := 0; i < nBackends; i++ {
		m := routesvc.NewMulti(routesvc.Config{
			N:         64,
			Admission: routesvc.AdmissionConfig{Disabled: true},
		}, 16)
		h := routesvc.NewMultiHandler(m)
		d, g := &atomic.Int64{}, &atomic.Bool{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ns := d.Load(); ns > 0 {
				time.Sleep(time.Duration(ns))
			}
			if g.Load() && r.URL.Path == "/route" {
				routesvc.WriteBody(w, http.StatusOK, []byte(`{"tag":`))
				return
			}
			h.ServeHTTP(w, r)
		}))
		f.multis = append(f.multis, m)
		f.srvs = append(f.srvs, srv)
		f.delays = append(f.delays, d)
		f.garbled = append(f.garbled, g)
		bases[i] = srv.URL
	}
	cfg.Backends = bases
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(); err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	t.Cleanup(func() {
		for i, srv := range f.srvs {
			srv.Close()
			f.multis[i].Drain()
		}
	})
	return f
}

// do posts a JSON request through the router and decodes the response.
func (f *testFleet) do(t *testing.T, path string, body, out any) int {
	t.Helper()
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	c := routesvc.NewClient(srv.URL, 5*time.Second)
	err := c.PostJSON(path, body, out)
	if err == nil {
		return http.StatusOK
	}
	if apiErr, ok := err.(*routesvc.APIError); ok {
		return apiErr.Status
	}
	t.Fatalf("POST %s: %v", path, err)
	return 0
}

func TestFleetScatterGatherOrder(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	// A mixed-partition, mixed-scheme batch large enough that every
	// backend owns a slice of it.
	var in routesvc.BatchJSON
	for i := 0; i < 150; i++ {
		sch := "tsdt"
		if i%3 == 0 {
			sch = "ssdt"
		}
		in.Requests = append(in.Requests, routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%4), Src: i % 64, Dst: (i * 7) % 64, Scheme: sch,
		})
	}
	var out struct {
		Responses []routesvc.RouteJSON `json:"responses"`
		Epoch     uint64               `json:"epoch"`
	}
	if code := f.do(t, "/route/batch", in, &out); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(out.Responses) != len(in.Requests) {
		t.Fatalf("got %d responses for %d requests", len(out.Responses), len(in.Requests))
	}
	for i, resp := range out.Responses {
		rq := in.Requests[i]
		if resp.Src != rq.Src || resp.Dst != rq.Dst || resp.Net != rq.Net {
			t.Fatalf("response %d out of order: got (%s,%d,%d), want (%s,%d,%d)",
				i, resp.Net, resp.Src, resp.Dst, rq.Net, rq.Src, rq.Dst)
		}
		if resp.Error != "" {
			t.Fatalf("response %d failed: %s (%s)", i, resp.Error, resp.Code)
		}
		if len(resp.Path) == 0 {
			t.Fatalf("response %d has no path", i)
		}
	}
	// The batch really scattered: more than one backend served requests.
	served := 0
	for _, bk := range f.rt.bks {
		if bk.reqs.Load() > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("scatter-gather used %d backends, want >= 2", served)
	}
}

// TestFleetFaultFanOutInvalidation is the end-to-end Theorem 3.2 check:
// after a /fault through the router, NO replica of the partition may
// serve a TSDT tag computed under the pre-fault map — every replica must
// have bumped its epoch and compute against the new map.
func TestFleetFaultFanOutInvalidation(t *testing.T) {
	const nb = 3
	f := newTestFleet(t, nb, Config{Replicas: nb}) // every backend replicates p0
	const src, dst = 3, 9

	// Route the same TSDT pair on every replica directly (the router pins
	// the pair to one replica; the point is that ALL replicas answered it
	// under the pre-fault map).
	for i, srv := range f.srvs {
		c := routesvc.NewClient(srv.URL, 5*time.Second)
		if _, err := c.Route("p0", src, dst, routesvc.SchemeTSDT); err != nil {
			t.Fatalf("warm backend %d: %v", i, err)
		}
	}

	var ack FleetMutateJSON
	code := f.do(t, "/fault", routesvc.MutateJSON{Net: "p0", Links: []string{"2:0:+"}}, &ack)
	if code != http.StatusOK {
		t.Fatalf("fault fan-out status %d", code)
	}
	if len(ack.Acks) != nb {
		t.Fatalf("%d acks, want %d (every replica must ack the epoch bump)", len(ack.Acks), nb)
	}
	for _, a := range ack.Acks {
		if a.Epoch != 1 {
			t.Fatalf("replica %s acked epoch %d, want 1", a.Backend, a.Epoch)
		}
	}

	// No replica may serve the stale tag now.
	for i, srv := range f.srvs {
		c := routesvc.NewClient(srv.URL, 5*time.Second)
		res, err := c.Route("p0", src, dst, routesvc.SchemeTSDT)
		if err != nil {
			t.Fatalf("backend %d post-fault route: %v", i, err)
		}
		if res.Cached {
			t.Fatalf("backend %d served a STALE TSDT tag after the fan-out (epoch %d)", i, res.Epoch)
		}
		if res.Epoch != 1 {
			t.Fatalf("backend %d recomputed under epoch %d, want 1", i, res.Epoch)
		}
		// 2:0:+ runs from 0∈S_2 to 4∈S_3.
		if len(res.Path) != 7 || res.Path[2] == 0 && res.Path[3] == 4 {
			t.Fatalf("backend %d path %v crosses the faulted link 2:0:+", i, res.Path)
		}
	}

	// A sibling partition on the same backends kept its epoch.
	c := routesvc.NewClient(f.srvs[0].URL, 5*time.Second)
	if res, err := c.Route("p1", src, dst, routesvc.SchemeTSDT); err != nil || res.Epoch != 0 {
		t.Fatalf("p1 epoch after p0 fault: %d (err %v), want 0", res.Epoch, err)
	}
}

func TestFleetHedgedRoute(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2, HedgeAfter: 20 * time.Millisecond})
	in := routesvc.RouteJSON{Net: "p0", Src: 5, Dst: 40, Scheme: "tsdt"}
	owner, _ := f.rt.ring.Owner(in.Net, in.Src, in.Dst)
	// Make the owner slow; the hedge must win from the other replica.
	f.delays[owner].Store(int64(300 * time.Millisecond))

	t0 := time.Now()
	var out routesvc.RouteJSON
	if code := f.do(t, "/route", in, &out); code != http.StatusOK {
		t.Fatalf("hedged route status %d", code)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("hedged route took %v; the hedge did not fire", d)
	}
	if out.Error != "" || len(out.Path) == 0 {
		t.Fatalf("hedged route bad response: %+v", out)
	}
	if got := f.rt.hedges.Load(); got != 1 {
		t.Fatalf("hedges_total=%d, want 1", got)
	}
}

// TestFleetSingleRunsInline: without hedging, a routed single's backend
// attempts run on the goroutine serving the request — no sender goroutine
// is spawned.
func TestFleetSingleRunsInline(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	in := routesvc.RouteJSON{Net: "p0", Src: 5, Dst: 40, Scheme: "tsdt"}
	owner, _ := f.rt.ring.Owner(in.Net, in.Src, in.Dst)
	f.delays[owner].Store(int64(300 * time.Millisecond))
	body, _ := json.Marshal(in)
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		f.rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route", strings.NewReader(string(body))))
		done <- rec.Code
	}()

	// Sample every goroutine while the request waits on the slow owner.
	var attempts []string
	for deadline := time.Now().Add(250 * time.Millisecond); len(attempts) == 0 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "fleet.(*Router).tryRoute") {
				attempts = append(attempts, g)
			}
		}
	}
	if len(attempts) != 1 {
		t.Fatalf("%d goroutines in a backend attempt, want 1", len(attempts))
	}
	if !strings.Contains(attempts[0], "fleet.(*Router).routeOne") {
		t.Fatalf("the backend attempt runs off the request's goroutine:\n%s", attempts[0])
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
}

// TestFleetRoutedSingleAllocs gates the routed fast path by its
// allocations: a warmed single through the router, counted across the
// whole process — client, router and backend on both legs. The count
// does not move with the host's speed, unlike the latency fleet-smoke
// prints. A single cost 211 allocations over net/http.Transport with a
// sender goroutine per request and 85 once every exchange ran on its
// caller's goroutine (BENCH_fleet.json); the budget sits between.
func TestFleetRoutedSingleAllocs(t *testing.T) {
	const budget = 140
	f := newTestFleet(t, 3, Config{Replicas: 2})
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	c := routesvc.NewClient(srv.URL, 5*time.Second)
	i := 0
	route := func() {
		i++
		out, err := c.Route("p0", i&63, (i*7)&63, routesvc.SchemeSSDT)
		if err != nil || out.Error != "" {
			t.Fatalf("route: %v %s", err, out.Error)
		}
	}
	for k := 0; k < 200; k++ {
		route()
	}
	if avg := testing.AllocsPerRun(500, route); avg > budget {
		t.Fatalf("a routed single allocates %.0f times, budget %d", avg, budget)
	} else {
		t.Logf("a routed single allocates %.0f times", avg)
	}
}

// TestFleetRoutedBatchAllocs gates the routed batch path by its
// allocations: a warmed 1000-item batch over p0–p3, half SSDT, through
// the router and Client, counted across the whole process. With a
// Path.Links allocation per item at the backend, a tag string per item
// at the client and slices grown item by item on every hop it cost
// 2,401 allocations (2,471 under -race); with per-batch arenas and
// pooled scratch it costs 203 (345 under -race, where sync.Pool drops
// a share of what it is handed). The budget sits between.
func TestFleetRoutedBatchAllocs(t *testing.T) {
	const budget = 600
	f := newTestFleet(t, 3, Config{Replicas: 2})
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	c := routesvc.NewClient(srv.URL, 5*time.Second)
	reqs := make([]routesvc.RouteJSON, 1000)
	for i := range reqs {
		reqs[i] = routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%4), Src: i & 63, Dst: (i*7 + 3) & 63, Scheme: []string{"ssdt", "tsdt"}[i/4%2],
		}
	}
	batch := func() {
		out, err := c.RouteBatch(reqs)
		if err != nil || len(out.Responses) != len(reqs) || out.Responses[len(reqs)-1].Error != "" {
			t.Fatalf("batch: %v, %d responses", err, len(out.Responses))
		}
	}
	for k := 0; k < 20; k++ {
		batch()
	}
	if avg := testing.AllocsPerRun(50, batch); avg > budget {
		t.Fatalf("a routed 1000-item batch allocates %.0f times, budget %d", avg, budget)
	} else {
		t.Logf("a routed 1000-item batch allocates %.0f times", avg)
	}
}

// TestFleetMalformedSingleRetries: a backend 200 whose body does not
// decode is a failed attempt — retried on the next replica when the
// budget allows, a 502 when it does not — and never reaches the client.
func TestFleetMalformedSingleRetries(t *testing.T) {
	for _, budget := range []float64{0.5, 0} {
		f := newTestFleet(t, 3, Config{Replicas: 2, RetryFraction: budget})
		in := routesvc.RouteJSON{Net: "p0", Src: 5, Dst: 40, Scheme: "tsdt"}
		owner, _ := f.rt.ring.Owner(in.Net, in.Src, in.Dst)
		f.garbled[owner].Store(true)
		body, _ := json.Marshal(in)
		front := httptest.NewServer(f.rt)
		code, got := rawPost(t, front.URL+"/route", string(body))
		front.Close()
		var out routesvc.RouteJSON
		err := json.Unmarshal(got, &out)
		switch {
		case budget > 0 && (code != http.StatusOK || err != nil || len(out.Path) == 0):
			t.Fatalf("retried route: %d %s", code, got)
		case budget == 0 && (code != http.StatusBadGateway || out.Code != "backend"):
			t.Fatalf("unretried route: %d %s, want 502 backend", code, got)
		}
		if errs := f.rt.bks[owner].errs.Load(); errs != 1 {
			t.Fatalf("budget %v: owner error count %d, want 1", budget, errs)
		}
	}
}

func TestFleetRetryAfterBackendDeath(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2, RetryFraction: 0.5, RetryBurst: 100})
	in := routesvc.RouteJSON{Net: "p0", Src: 5, Dst: 40, Scheme: "tsdt"}
	owner, _ := f.rt.ring.Owner(in.Net, in.Src, in.Dst)
	f.srvs[owner].Close() // kill the primary

	var out routesvc.RouteJSON
	if code := f.do(t, "/route", in, &out); code != http.StatusOK {
		t.Fatalf("route with dead primary: status %d", code)
	}
	if out.Error != "" || len(out.Path) == 0 {
		t.Fatalf("retried route bad response: %+v", out)
	}
	if f.rt.budget.retries.Load() == 0 {
		t.Fatal("no retry was counted against the budget")
	}

	// Batch: every item whose primary died must come back from the other
	// replica via the retry round — zero per-item errors.
	var bin routesvc.BatchJSON
	for i := 0; i < 128; i++ {
		bin.Requests = append(bin.Requests, routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%4), Src: i % 64, Dst: (i * 11) % 64, Scheme: "tsdt",
		})
	}
	var bout struct {
		Responses []routesvc.RouteJSON `json:"responses"`
	}
	if code := f.do(t, "/route/batch", bin, &bout); code != http.StatusOK {
		t.Fatalf("batch with dead backend: status %d", code)
	}
	for i, resp := range bout.Responses {
		if resp.Error != "" {
			t.Fatalf("batch item %d failed despite a live replica: %s", i, resp.Error)
		}
	}
}

func TestFleetRetryBudgetExhausted(t *testing.T) {
	// No retry budget: a dead primary's items must fail per-item (the
	// batch itself still answers 200 — one dead backend degrades 1/K of
	// a batch, it does not fail it whole).
	f := newTestFleet(t, 3, Config{Replicas: 2, RetryFraction: 0})
	var bin routesvc.BatchJSON
	for i := 0; i < 64; i++ {
		bin.Requests = append(bin.Requests, routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%4), Src: i % 64, Dst: (i * 11) % 64, Scheme: "tsdt",
		})
	}
	// Kill the owner of the first item: placement hashes the backends'
	// (random) URLs, so a fixed index may own no partition at all.
	first := bin.Requests[0]
	dead, _ := f.rt.ring.Owner(first.Net, first.Src, first.Dst)
	f.srvs[dead].Close()
	var bout struct {
		Responses []routesvc.RouteJSON `json:"responses"`
	}
	if code := f.do(t, "/route/batch", bin, &bout); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	var failed, ok int
	for _, resp := range bout.Responses {
		if resp.Error != "" {
			if resp.Code != "backend" {
				t.Fatalf("failed item code %q, want \"backend\"", resp.Code)
			}
			failed++
		} else {
			ok++
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("failed=%d ok=%d: expected a partial batch (dead backend owns some items)", failed, ok)
	}
}

func TestFleetMutateFanOutFailsClosed(t *testing.T) {
	// A fault fan-out that cannot reach every replica must answer 502 —
	// claiming an ack it did not get would let a replica serve stale
	// TSDT tags.
	f := newTestFleet(t, 2, Config{Replicas: 2})
	f.srvs[1].Close()
	var ack FleetMutateJSON
	code := f.do(t, "/fault", routesvc.MutateJSON{Net: "p0", Links: []string{"2:0:+"}}, &ack)
	if code != http.StatusBadGateway {
		t.Fatalf("partial fan-out answered %d, want 502", code)
	}
}

func TestFleetMetricsMergeAndDrain(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	var bin routesvc.BatchJSON
	for i := 0; i < 96; i++ {
		bin.Requests = append(bin.Requests, routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%3), Src: i % 64, Dst: (i * 5) % 64, Scheme: "ssdt",
		})
	}
	var bout struct {
		Responses []routesvc.RouteJSON `json:"responses"`
	}
	if code := f.do(t, "/route/batch", bin, &bout); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}

	m := f.rt.Metrics()
	if m.Service.Requests != 96 {
		t.Fatalf("merged requests=%d, want 96", m.Service.Requests)
	}
	if m.Fleet.Batches != 1 || m.Fleet.SubBatches == 0 {
		t.Fatalf("fleet counters: batches=%d sub_batches=%d", m.Fleet.Batches, m.Fleet.SubBatches)
	}
	if m.Fleet.ScrapeErrors != 0 || len(m.Fleet.Backends) != 3 {
		t.Fatalf("scrape: errors=%d backends=%d", m.Fleet.ScrapeErrors, len(m.Fleet.Backends))
	}
	for _, n := range m.Networks {
		if n.Replicas == 0 {
			t.Fatalf("network %s merged with 0 replicas", n.Net)
		}
	}
	// The document keeps the single-backend shape: decoding it as a
	// routesvc.MetricsJSON (what iadmload does) must see the service
	// counters.
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var plain routesvc.MetricsJSON
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Service.Requests != 96 {
		t.Fatalf("document lost shape: decoded requests=%d", plain.Service.Requests)
	}
	if !strings.Contains(string(raw), `"fleet"`) {
		t.Fatal("document missing fleet section")
	}

	// Drain: new requests refused, healthz flips to draining.
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	checkHealth(t, srv.URL, http.StatusOK, "ok")
	f.rt.Drain()
	c := routesvc.NewClient(srv.URL, 2*time.Second)
	_, err = c.Route("p0", 1, 2, routesvc.SchemeTSDT)
	apiErr, ok := err.(*routesvc.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "draining" {
		t.Fatalf("route after drain: %v, want 503 draining", err)
	}
	// Like a draining backend, the router still answers /healthz with its
	// own document, not the drain gate's error body.
	checkHealth(t, srv.URL, http.StatusServiceUnavailable, "draining")
}

// checkHealth GETs base/healthz and requires the given status code and a
// router HealthJSON with the given status over the test fleet's 3
// backends.
func checkHealth(t *testing.T, base string, code int, status string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if resp.StatusCode != code || h.Status != status || h.N != 64 || h.Backends != 3 {
		t.Fatalf("healthz: %d %+v, want %d with status %q, n 64, 3 backends", resp.StatusCode, h, code, status)
	}
}

// TestFleetNoWarmupEndpoint: SSDT needs no warm-up anywhere in the fleet
// (the tag is the destination address), so the router exposes no
// warm-up fan-out.
func TestFleetNoWarmupEndpoint(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	rec := httptest.NewRecorder()
	f.rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/prewarm", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /prewarm: status %d, want 404", rec.Code)
	}
}

func TestFleetProbeMismatchedN(t *testing.T) {
	mA := routesvc.NewMulti(routesvc.Config{N: 64, Admission: routesvc.AdmissionConfig{Disabled: true}}, 4)
	mB := routesvc.NewMulti(routesvc.Config{N: 128, Admission: routesvc.AdmissionConfig{Disabled: true}}, 4)
	sA := httptest.NewServer(routesvc.NewMultiHandler(mA))
	sB := httptest.NewServer(routesvc.NewMultiHandler(mB))
	defer sA.Close()
	defer sB.Close()
	rt, err := New(Config{Backends: []string{sA.URL, sB.URL}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(); err == nil {
		t.Fatal("probe accepted backends with mismatched N")
	}
}

// serveEveryEndpoint sends one request to each endpoint the router serves,
// in process.
func serveEveryEndpoint(t *testing.T, h http.Handler) {
	t.Helper()
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/route?src=0&dst=1&scheme=ssdt", ""},
		{http.MethodPost, "/route/batch", `{"requests":[{"src":0,"dst":1,"scheme":"tsdt"}]}`},
		{http.MethodPost, "/fault", `{"links":["0:3:+"]}`},
		{http.MethodPost, "/repair", `{"links":["0:3:+"]}`},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
}

// TestRouterFootprint bounds what a Router keeps resident once every
// endpoint has served: its latency histograms grow on demand, so 16
// routers stay within 16 KiB each (six preallocated 4,096-bucket streams
// would be 192 KiB each). The backend closes every connection after
// answering, and the test waits for it to, so no keep-alive connection's
// buffers, on either side, count against the routers; one router served
// before the baseline fills the process-wide caches (encoding/json's type
// cache and the like) that no router owns.
func TestRouterFootprint(t *testing.T) {
	m := routesvc.NewMulti(routesvc.Config{N: 64, Admission: routesvc.AdmissionConfig{Disabled: true}}, 4)
	t.Cleanup(m.Drain)
	h := routesvc.NewMultiHandler(m)
	// open counts the backend's connections. A connection is accepted
	// (StateNew) before its request is served, so once a router's calls
	// have returned, every connection they opened is counted.
	var mu sync.Mutex
	closed := sync.NewCond(&mu)
	open := 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		h.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open++
		case http.StateClosed, http.StateHijacked:
			open--
			closed.Broadcast()
		}
	}
	srv.Start()
	defer srv.Close()
	build := func() *Router {
		rt, err := New(Config{Backends: []string{srv.URL}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Probe(); err != nil {
			t.Fatal(err)
		}
		serveEveryEndpoint(t, rt)
		return rt
	}
	heap := func() int64 {
		mu.Lock()
		for open > 0 {
			closed.Wait()
		}
		mu.Unlock()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	primer := build()
	const routers = 16
	rts := make([]*Router, routers)
	before := heap()
	for i := range rts {
		rts[i] = build()
	}
	delta := heap() - before
	runtime.KeepAlive(primer)
	runtime.KeepAlive(rts)
	if delta > routers*16<<10 {
		t.Fatalf("%d routers hold %d KiB (%d KiB each), budget 16 KiB each", routers, delta>>10, delta/routers>>10)
	}
	t.Logf("%d routers hold %d KiB", routers, delta>>10)
}

// TestFleetBackendLatencyMerge: after traffic through three backends, the
// router's fleet.backend_latency for /route and /route/batch is the exact
// merge of the backends' own endpoint histograms — counts sum, the max is
// the largest backend max — while endpoints stays router-observed.
func TestFleetBackendLatencyMerge(t *testing.T) {
	f := newTestFleet(t, 3, Config{Replicas: 2})
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	c := routesvc.NewClient(srv.URL, 5*time.Second)
	var bin routesvc.BatchJSON
	for i := 0; i < 60; i++ {
		net := fmt.Sprintf("p%d", i%4)
		if _, err := c.Route(net, i%64, (i*7)%64, routesvc.SchemeTSDT); err != nil {
			t.Fatal(err)
		}
		bin.Requests = append(bin.Requests, routesvc.RouteJSON{Net: net, Src: i % 64, Dst: (i * 5) % 64, Scheme: "ssdt"})
		if i%10 == 9 {
			if _, err := c.RouteBatch(bin.Requests); err != nil {
				t.Fatal(err)
			}
			bin.Requests = bin.Requests[:0]
		}
	}
	// Scrape the backends first: the router's own scrape lands on their
	// /metrics endpoints, not on the two compared here.
	var backends []routesvc.MetricsJSON
	for _, s := range f.srvs {
		m, err := routesvc.NewClient(s.URL, 5*time.Second).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, m)
	}
	m := f.rt.Metrics()
	for _, path := range []string{"/route", "/route/batch"} {
		var count int
		var maxUS float64
		var sumUS uint64
		for _, b := range backends {
			e := b.Endpoints[path]
			count += e.Count
			maxUS = max(maxUS, e.MaxUS)
			sumUS += e.SumUS
		}
		got, ok := m.Fleet.BackendLatency[path]
		if !ok || got.Count != count || got.MaxUS != maxUS || got.SumUS != sumUS {
			t.Fatalf("%s: backend_latency %+v, want count %d max %v sum %d", path, got, count, maxUS, sumUS)
		}
		if got.P50US > got.P99US || got.P99US > got.MaxUS {
			t.Fatalf("%s: merged percentiles out of order: %+v", path, got)
		}
	}
	if got := m.Endpoints["/route"].Count; got != 60 {
		t.Fatalf("router-observed /route count %d, want 60", got)
	}
	if got := m.Endpoints["/route/batch"].Count; got != 6 {
		t.Fatalf("router-observed /route/batch count %d, want 6", got)
	}
	if b := m.Fleet.BackendLatency["/route/batch"].Count; b < 6 {
		t.Fatalf("backends saw %d /route/batch calls for 6 routed batches", b)
	}
}
