package routesvc

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// waitMetrics polls the service until cond holds or the deadline passes —
// auto-sweeps run on their own goroutines.
func waitMetrics(t *testing.T, s *Service, what string, cond func(Metrics) bool) Metrics {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; metrics: %+v", what, m)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSSDTNeverReachesSlowPath pins the SSDT serving contract with every
// slow-path door rigged to show a compute: the admission gate holds no
// free ticket, the compute hook fails the test on any SSDT call, and a
// fault storm bumps the epoch (scheduling sweeps) between requests.
// Every single and batch answer must still be the Theorem 3.1 tag, its
// all-C walk, a hit, at the current epoch — with nothing stored.
func TestSSDTNeverReachesSlowPath(t *testing.T) {
	const N = 64
	s := mustService(t, Config{N: N, SweepEvery: 1,
		Admission: AdmissionConfig{MaxQueue: 1, MinQueue: 1, Round: -1}})
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

// TestAutoSweep: stale TSDT entries are reclaimed without an operator
// call once SweepEvery epoch bumps accumulate.
func TestAutoSweep(t *testing.T) {
	s := mustService(t, Config{N: 8, Shards: 2, SweepEvery: 2})
	for d := 0; d < 8; d++ {
		if _, err := s.Route(0, d, SchemeTSDT); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.CacheEntriesLive != 8 || m.CacheEntriesStale != 0 {
		t.Fatalf("before churn: live=%d stale=%d", m.CacheEntriesLive, m.CacheEntriesStale)
	}
	// Two map changes: epoch reaches 2, the cadence fires, and the sweep
	// (asynchronously) reclaims all 8 now-stale TSDT entries.
	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 1, Kind: topology.Minus}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFault(topology.Link{Stage: 1, From: 2, Kind: topology.Plus}); err != nil {
		t.Fatal(err)
	}
	m = waitMetrics(t, s, "auto sweep", func(m Metrics) bool { return m.SweptTotal >= 8 })
	if m.Sweeps == 0 {
		t.Fatalf("sweeps = 0 with swept_total = %d", m.SweptTotal)
	}
	if m.CacheEntries != 0 || m.CacheEntriesStale != 0 {
		t.Fatalf("after auto sweep: entries=%d stale=%d", m.CacheEntries, m.CacheEntriesStale)
	}
}

// TestConcurrentSweepChurn races routing traffic, epoch churn, automatic and
// operator sweeps under the race detector; the -race run of the suite is
// the concurrent get/put/sweep-under-epoch-bumps gate.
func TestConcurrentSweepChurn(t *testing.T) {
	s := mustService(t, Config{N: 32, Shards: 4, SweepEvery: 2})
	const G, R = 6, 200
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			l := topology.Link{Stage: g % 5, From: g, Kind: topology.Minus}
			for r := 0; r < R; r++ {
				scheme := Scheme(r % 2)
				if _, err := s.Route(rng.Intn(32), rng.Intn(32), scheme); err != nil && !errors.Is(err, core.ErrNoPath) {
					t.Errorf("route: %v", err)
					return
				}
				switch r % 40 {
				case 5:
					s.ReportFault(l)
				case 15:
					s.ReportRepair(l)
				case 35:
					if g == 1 {
						s.Sweep()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := s.Metrics()
	total := m.SSDT.Hits + m.SSDT.Misses + m.TSDT.Hits + m.TSDT.Misses
	if total != G*R {
		t.Errorf("hits+misses = %d, want %d", total, G*R)
	}
	if m.CacheEntries != m.CacheEntriesLive+m.CacheEntriesStale {
		t.Errorf("entries %d != live %d + stale %d", m.CacheEntries, m.CacheEntriesLive, m.CacheEntriesStale)
	}
	s.Drain() // waits out any scheduled sweep goroutines
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
