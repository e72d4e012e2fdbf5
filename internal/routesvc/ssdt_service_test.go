package routesvc

import (
	"errors"
	"net/http"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestSSDTNeverReachesSlowPath pins the SSDT serving contract with every
// slow-path door rigged to show a compute: the admission gate holds no
// free ticket, the compute hook fails the test on any SSDT call, and a
// fault storm bumps the epoch between requests. Every single and batch
// answer must still be the Theorem 3.1 tag, its all-C walk, a hit, at the
// current epoch — with nothing stored.
func TestSSDTNeverReachesSlowPath(t *testing.T) {
	const N = 64
	s := mustService(t, Config{N: N,
		Admission: AdmissionConfig{MaxQueue: 1}})
	defer s.Drain()
	if !s.adm.acquire() {
		t.Fatal("could not take the only admission ticket")
	}
	defer s.adm.release()
	s.testComputeHook = func(sc Scheme) {
		if sc == SchemeSSDT {
			t.Errorf("SSDT request reached the compute path")
		}
	}
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrOverload) {
		t.Fatalf("fresh TSDT with the gate full: err=%v, want ErrOverload", err)
	}

	p := s.Params()
	storm := func(i int) {
		l := topology.Link{Stage: i % p.Stages(), From: (i * 7) % N, Kind: topology.Plus}
		if i%2 == 0 {
			s.ReportFault(l)
		} else {
			s.ReportRepair(l)
		}
	}
	check := func(what string, res Result, src, dst int) {
		t.Helper()
		tag := core.MustTag(p, dst)
		if res.Tag != tag || !res.Path.Equal(tag.Follow(p, src)) || !res.Cached || res.Epoch != s.Epoch() {
			t.Fatalf("%s (%d, %d): tag=%v path=%v cached=%v epoch=%d (current %d)",
				what, src, dst, res.Tag, res.Path, res.Cached, res.Epoch, s.Epoch())
		}
	}
	for dst := 0; dst < N; dst++ {
		storm(dst)
		src := (dst * 5) % N
		res, err := s.Route(src, dst, SchemeSSDT)
		if err != nil {
			t.Fatalf("single (%d, %d): %v", src, dst, err)
		}
		check("single", res, src, dst)
	}
	storm(N)
	reqs := make([]Request, N)
	for dst := range reqs {
		reqs[dst] = Request{Src: (dst * 3) % N, Dst: dst, Scheme: SchemeSSDT}
	}
	out, err := s.RouteBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("batch item %d: %v", i, res.Err)
		}
		check("batch", res, reqs[i].Src, reqs[i].Dst)
	}
	m := s.Metrics()
	if m.CacheEntries != 0 || m.SSDT.Misses != 0 || m.SSDT.Coalesced != 0 || m.SSDT.Hits != 2*N {
		t.Fatalf("after SSDT traffic: entries=%d ssdt=%+v, want 0 entries, %d hits, no misses", m.CacheEntries, m.SSDT, 2*N)
	}
}

// TestSSDTOverHTTPNeedsNoWarmup: the first SSDT /route of a fresh daemon
// is a hit, and there is no warm-up endpoint to call.
func TestSSDTOverHTTPNeedsNoWarmup(t *testing.T) {
	_, ts := newTestServer(t, Config{N: 16})
	postJSON(t, ts.URL+"/prewarm", struct{}{}, http.StatusNotFound, nil)

	var route RouteJSON
	getJSON(t, ts.URL+"/route?src=2&dst=9&scheme=ssdt", http.StatusOK, &route)
	if !route.Cached || route.Tag != core.MustTag(topology.MustParams(16), 9).String() {
		t.Fatalf("first SSDT /route: %+v", route)
	}
	var m MetricsJSON
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.Service.SSDT.Hits != 1 || m.Service.SSDT.Misses != 0 || m.Service.CacheEntries != 0 {
		t.Fatalf("metrics: ssdt=%+v entries=%d", m.Service.SSDT, m.Service.CacheEntries)
	}
}
