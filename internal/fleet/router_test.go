package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

// testFleet is an in-process fleet: real routesvc multi-network backends
// behind httptest servers, fronted by a Router. delays lets tests slow
// one backend down (hedge tests); closing a server simulates its death.
type testFleet struct {
	rt     *Router
	multis []*routesvc.Multi
	srvs   []*httptest.Server
	delays []*atomic.Int64 // per-backend artificial latency, ns
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
		d := &atomic.Int64{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if ns := d.Load(); ns > 0 {
				time.Sleep(time.Duration(ns))
			}
			h.ServeHTTP(w, r)
		}))
		f.multis = append(f.multis, m)
		f.srvs = append(f.srvs, srv)
		f.delays = append(f.delays, d)
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
// have bumped its epoch and recompute on next request.
func TestFleetFaultFanOutInvalidation(t *testing.T) {
	const nb = 3
	f := newTestFleet(t, nb, Config{Replicas: nb}) // every backend replicates p0
	const src, dst = 3, 9

	// Warm the same TSDT pair on every replica directly (the router pins
	// the pair to one replica; the point is that ALL replicas hold a tag).
	for i, srv := range f.srvs {
		c := routesvc.NewClient(srv.URL, 5*time.Second)
		if _, err := c.Route("p0", src, dst, routesvc.SchemeTSDT); err != nil {
			t.Fatalf("warm backend %d: %v", i, err)
		}
		res, err := c.Route("p0", src, dst, routesvc.SchemeTSDT)
		if err != nil || !res.Cached {
			t.Fatalf("backend %d not warmed: cached=%v err=%v", i, res.Cached, err)
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
	f.rt.Drain()
	srv := httptest.NewServer(f.rt)
	defer srv.Close()
	c := routesvc.NewClient(srv.URL, 2*time.Second)
	_, err = c.Route("p0", 1, 2, routesvc.SchemeTSDT)
	apiErr, ok := err.(*routesvc.APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "draining" {
		t.Fatalf("route after drain: %v, want 503 draining", err)
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
