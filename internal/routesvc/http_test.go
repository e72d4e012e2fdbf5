package routesvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := mustService(t, cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func postJSON(t *testing.T, url string, in any, wantStatus int, out any) {
	t.Helper()
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s %s: status %d (want %d): %s", url, buf, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func TestHTTPRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{N: 8})

	var got RouteJSON
	getJSON(t, ts.URL+"/route?src=1&dst=6&scheme=tsdt", http.StatusOK, &got)
	if got.Tag == "" || len(got.Path) != 4 || got.Path[0] != 1 || got.Path[3] != 6 {
		t.Fatalf("route response %+v", got)
	}
	if got.Cached {
		t.Error("first request cached")
	}
	getJSON(t, ts.URL+"/route?src=1&dst=6", http.StatusOK, &got) // scheme defaults to tsdt
	if !got.Cached {
		t.Error("second request not cached")
	}

	// POST body form.
	postJSON(t, ts.URL+"/route", RouteJSON{Src: 2, Dst: 3, Scheme: "ssdt"}, http.StatusOK, &got)
	if got.Scheme != "ssdt" || got.Tag == "" {
		t.Fatalf("POST route response %+v", got)
	}

	// Bad requests.
	getJSON(t, ts.URL+"/route?src=1&dst=nope", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/route?src=1&dst=2&scheme=warp", http.StatusBadRequest, nil)
	getJSON(t, ts.URL+"/route?src=1&dst=99", http.StatusBadRequest, nil)
	resp, err := http.Head(ts.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("HEAD /route: %d", resp.StatusCode)
	}
}

func TestHTTPFaultRepairFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{N: 8})

	var route RouteJSON
	getJSON(t, ts.URL+"/route?src=5&dst=5", http.StatusOK, &route)
	if route.Epoch != 0 {
		t.Fatalf("fresh epoch %d", route.Epoch)
	}

	// Fault the straight link the (5,5) path needs: now unroutable (422).
	var mut MutateJSON
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"1:5:0"}}, http.StatusOK, &mut)
	if mut.Changed != 1 || mut.Epoch != 1 || mut.Blocked != 1 {
		t.Fatalf("fault response %+v", mut)
	}
	getJSON(t, ts.URL+"/route?src=5&dst=5&scheme=tsdt", http.StatusUnprocessableEntity, nil)

	// Duplicate fault: accepted, no change.
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"1:5:0"}}, http.StatusOK, &mut)
	if mut.Changed != 0 || mut.Epoch != 1 {
		t.Fatalf("duplicate fault response %+v", mut)
	}

	// Repair restores the route.
	postJSON(t, ts.URL+"/repair", MutateJSON{Links: []string{"1:5:0"}}, http.StatusOK, &mut)
	if mut.Changed != 1 || mut.Epoch != 2 || mut.Blocked != 0 {
		t.Fatalf("repair response %+v", mut)
	}
	getJSON(t, ts.URL+"/route?src=5&dst=5", http.StatusOK, &route)
	if route.Epoch != 2 {
		t.Errorf("post-repair epoch %d", route.Epoch)
	}

	// Switch faults expand to input-link blockages; switch repairs are
	// rejected.
	postJSON(t, ts.URL+"/fault", MutateJSON{Switches: []string{"1:3"}}, http.StatusOK, &mut)
	if mut.Changed != 3 || mut.Blocked != 3 {
		t.Fatalf("switch fault response %+v", mut)
	}
	postJSON(t, ts.URL+"/repair", MutateJSON{Switches: []string{"1:3"}}, http.StatusBadRequest, nil)

	// Malformed mutations.
	postJSON(t, ts.URL+"/fault", MutateJSON{}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"9:9:?"}}, http.StatusBadRequest, nil)
	resp, err := http.Get(ts.URL + "/fault")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /fault: %d", resp.StatusCode)
	}
}

func TestHTTPBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{N: 8})
	req := BatchJSON{Requests: []RouteJSON{
		{Src: 0, Dst: 7, Scheme: "tsdt"},
		{Src: 1, Dst: 7, Scheme: "ssdt"},
		{Src: 2, Dst: 7, Scheme: "ssdt"},
		{Src: 0, Dst: 99, Scheme: "tsdt"},
	}}
	var got BatchJSON
	postJSON(t, ts.URL+"/route/batch", req, http.StatusOK, &got)
	if len(got.Responses) != 4 {
		t.Fatalf("%d responses", len(got.Responses))
	}
	for i, r := range got.Responses[:3] {
		if r.Error != "" || r.Tag == "" {
			t.Errorf("response %d: %+v", i, r)
		}
	}
	if !got.Responses[2].Cached {
		t.Error("SSDT batch item not answered as a hit")
	}
	if !strings.Contains(got.Responses[3].Error, "invalid") {
		t.Errorf("bad pair error %q", got.Responses[3].Error)
	}

	// Unknown scheme anywhere fails the whole batch with 400.
	req.Requests[1].Scheme = "warp"
	postJSON(t, ts.URL+"/route/batch", req, http.StatusBadRequest, nil)

	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/route/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: %d", resp.StatusCode)
	}
}

// TestHTTPBatchPoolsConcurrent drives mixed-network batches of several
// sizes through one multi-network Handler and the Client from several
// goroutines at once, so the pooled per-batch memory on both sides is
// reused across requests in flight. Every answer is checked once all are
// in, so one that still shared pooled memory would have been overwritten
// by then: each must be its own request's, in order, with a path from
// src to dst.
func TestHTTPBatchPoolsConcurrent(t *testing.T) {
	m := NewMulti(Config{N: 16, Admission: AdmissionConfig{Disabled: true}}, 4)
	t.Cleanup(m.Drain)
	ts := httptest.NewServer(NewMultiHandler(m))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, 0)
	const workers, rounds = 4, 30
	var reqs [workers][rounds][]RouteJSON
	var outs [workers][rounds]BatchJSON
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < rounds; it++ {
				rq := make([]RouteJSON, 1+(w*37+it*11)%150)
				for i := range rq {
					rq[i] = RouteJSON{Net: []string{"", "p1", "p2"}[(i+w)%3], Src: (i + it) % 16, Dst: (i*7 + w) % 16, Scheme: []string{"ssdt", "tsdt"}[i%2]}
				}
				out, err := c.RouteBatch(rq)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				reqs[w][it], outs[w][it] = rq, out
			}
		}(w)
	}
	wg.Wait()
	for w := range outs {
		for it, out := range outs[w] {
			rq := reqs[w][it]
			if len(out.Responses) != len(rq) {
				t.Fatalf("worker %d round %d: %d responses for %d requests", w, it, len(out.Responses), len(rq))
			}
			for i, r := range out.Responses {
				q := rq[i]
				if r.Net != q.Net || r.Src != q.Src || r.Dst != q.Dst || r.Scheme != q.Scheme || r.Error != "" ||
					len(r.Path) != 5 || r.Path[0] != q.Src || r.Path[4] != q.Dst || len(r.Tag) != 8 {
					t.Fatalf("worker %d round %d item %d: request %+v answered %+v", w, it, i, q, r)
				}
			}
		}
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	svc, ts := newTestServer(t, Config{N: 16})

	var health HealthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.N != 16 {
		t.Fatalf("healthz %+v", health)
	}

	// Traffic: 10 SSDT requests (all hits: the tag is the address), one
	// fault.
	for i := 0; i < 10; i++ {
		getJSON(t, ts.URL+fmt.Sprintf("/route?src=%d&dst=9&scheme=ssdt", i%4), http.StatusOK, nil)
	}
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"0:3:+"}}, http.StatusOK, nil)

	var m MetricsJSON
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Service.N != 16 || m.Service.Epoch != 1 {
		t.Errorf("metrics service %+v", m.Service)
	}
	if m.Service.SSDT.Hits != 10 || m.Service.SSDT.Misses != 0 {
		t.Errorf("ssdt cache stats %+v", m.Service.SSDT)
	}
	if m.Service.SSDTHitRate != 1 {
		t.Errorf("ssdt hit rate %v", m.Service.SSDTHitRate)
	}
	if m.Service.Faults != 1 || m.Service.Invalidations != 1 {
		t.Errorf("fault counters %+v", m.Service)
	}
	ep, ok := m.Endpoints["/route"]
	if !ok || ep.Count != 10 {
		t.Errorf("endpoint latency %+v", m.Endpoints)
	}
	if ep.MeanUS <= 0 || ep.MaxUS < ep.P50US {
		t.Errorf("latency stats %+v", ep)
	}
	if m.HTTP5xx != 0 {
		t.Errorf("5xx = %d", m.HTTP5xx)
	}

	// Drain: healthz flips to 503, routes are refused with 503, and none
	// of that counts as a 5xx failure.
	svc.Drain()
	getJSON(t, ts.URL+"/healthz", http.StatusServiceUnavailable, &health)
	if health.Status != "draining" {
		t.Errorf("draining healthz %+v", health)
	}
	getJSON(t, ts.URL+"/route?src=0&dst=1", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if !m.Service.Draining {
		t.Error("metrics not draining")
	}
	if m.HTTP5xx != 0 {
		t.Errorf("drain refusals counted as 5xx: %d", m.HTTP5xx)
	}
}
