package routesvc

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestTSDTComputeReportsComputingEpoch is the regression test for the
// mid-compute epoch stamp: a mutation injected after the request is
// admitted but before the controller computes must not relabel the fresh
// tag with the older epoch. The answer's path is clear under exactly the map of the epoch
// it reports, in both directions: a repair that frees the default path
// and a fault that blocks it.
func TestTSDTComputeReportsComputingEpoch(t *testing.T) {
	for _, repair := range []bool{true, false} {
		s := mustService(t, Config{N: 8})
		p := s.Params()
		src, dst := 1, 6
		// The default (all-C) path's stage-1 link: REROUTE takes it when
		// it is clear and must detour when it is blocked.
		l := core.MustTag(p, dst).Follow(p, src).Links[1]
		if repair {
			if _, err := s.ReportFault(l); err != nil {
				t.Fatal(err)
			}
		}
		var once sync.Once
		s.testComputeHook = func(Scheme) {
			once.Do(func() {
				var err error
				if repair {
					_, err = s.ReportRepair(l)
				} else {
					_, err = s.ReportFault(l)
				}
				if err != nil {
					t.Error(err)
				}
			})
		}
		before := s.Epoch()
		res, err := s.Route(src, dst, SchemeTSDT)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || s.Epoch() != before+1 {
			t.Fatalf("repair=%v: want a fresh compute across one bump, got %+v at epoch %d", repair, res, s.Epoch())
		}
		if res.Epoch != s.Epoch() {
			t.Errorf("repair=%v: reported epoch %d, computed under %d", repair, res.Epoch, s.Epoch())
		}
		blocked := false
		for _, pl := range res.Path.Links {
			blocked = blocked || pl == l
		}
		// Under the reported (current) map the link is clear iff this was
		// a repair; the path must avoid it otherwise.
		if !repair && blocked {
			t.Errorf("path %v crosses %v, blocked at its reported epoch %d", res.Path, l, res.Epoch)
		}
		if repair && !blocked {
			t.Errorf("path %v avoids the repaired default link %v; the race is not exercised", res.Path, l)
		}
	}
}

// TestSwitchFaultChangedCount pins the count-returning switch fault API:
// the report says how many input links it actually blocked, not a
// racy epoch comparison's guess.
func TestSwitchFaultChangedCount(t *testing.T) {
	s := mustService(t, Config{N: 8})
	sw := topology.Switch{Stage: 1, Index: 3}
	m := topology.IADM{Params: s.Params()}
	in := m.InLinks(sw.Stage-1, sw.Index)

	changed, err := s.ReportSwitchFault(sw)
	if err != nil {
		t.Fatal(err)
	}
	if changed != len(in) || changed != 3 {
		t.Fatalf("fresh switch fault changed %d links, want %d", changed, len(in))
	}

	// Repair one input link, re-report the switch: exactly the repaired
	// link is re-blocked.
	if ch, err := s.ReportRepair(in[0]); err != nil || !ch {
		t.Fatalf("repair = (%v, %v)", ch, err)
	}
	if changed, err = s.ReportSwitchFault(sw); err != nil || changed != 1 {
		t.Fatalf("partial re-fault changed %d (%v), want 1", changed, err)
	}

	// Fully blocked already: a duplicate report changes nothing.
	if changed, err = s.ReportSwitchFault(sw); err != nil || changed != 0 {
		t.Fatalf("duplicate switch fault changed %d (%v), want 0", changed, err)
	}
}

// TestEmptyBatchSkipsLatencyBands: a zero-length batch does no routing
// work and must not pollute the "1" (singleton) batch latency band.
func TestEmptyBatchSkipsLatencyBands(t *testing.T) {
	s := mustService(t, Config{N: 8})
	for _, reqs := range [][]Request{nil, {}} {
		out, err := s.RouteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("empty batch returned %d results", len(out))
		}
	}
	for _, b := range s.Metrics().BatchLatency {
		if b.Count != 0 {
			t.Errorf("band %q count = %d after empty batches, want 0", b.Batch, b.Count)
		}
	}
}

// TestOverloadShedsSlowPathOnly holds a MaxQueue-k gate full with k
// computes parked in the compute hook and checks the tiering contract
// under -race: exactly k computes run, every further TSDT request sheds
// (ErrOverload from the Service, 429 with Retry-After: 1 on /route,
// "code":"overload" in a batch), SSDT keeps answering, and a freed slot
// admits the next TSDT compute at once.
func TestOverloadShedsSlowPathOnly(t *testing.T) {
	const k, G = 2, 6
	s, ts := newTestServer(t, Config{N: 8, Admission: AdmissionConfig{MaxQueue: k}})
	// Prime one TSDT pair: repeating it during the flood is a computation
	// again, so it needs a ticket too.
	if _, err := s.Route(0, 1, SchemeTSDT); err != nil {
		t.Fatal(err)
	}

	var running atomic.Int64
	entered := make(chan struct{}, G)
	unblock := make(chan struct{})
	s.testComputeHook = func(Scheme) {
		running.Add(1)
		entered <- struct{}{}
		<-unblock
		running.Add(-1)
	}

	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			_, err := s.Route(g, 7-g, SchemeTSDT)
			errs <- err
		}(g)
	}

	// Exactly k computes enter the slow path and park in the hook; every
	// other flood request sheds immediately.
	for i := 0; i < k; i++ {
		<-entered
	}
	for i := 0; i < G-k; i++ {
		if err := <-errs; !errors.Is(err, ErrOverload) {
			t.Errorf("flood request returned %v, want ErrOverload", err)
		}
	}
	if n := running.Load(); n != k {
		t.Fatalf("%d computes running, want %d", n, k)
	}

	// A TSDT pair served before is slow path like any other.
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrOverload) {
		t.Errorf("primed TSDT pair during overload: err=%v, want ErrOverload", err)
	}

	// On the wire: /route answers 429 with a one-second Retry-After.
	resp, err := http.Get(ts.URL + "/route?src=3&dst=4&scheme=tsdt")
	if err != nil {
		t.Fatal(err)
	}
	var e errJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != "overload" {
		t.Errorf("shed /route: status %d code %q, want 429 overload", resp.StatusCode, e.Code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want 1", ra)
	}

	// A batch sheds its TSDT item alone; the SSDT item and single SSDT
	// requests are answered while the slow path is full.
	var batch BatchJSON
	postJSON(t, ts.URL+"/route/batch", BatchJSON{Requests: []RouteJSON{
		{Src: 2, Dst: 5, Scheme: "tsdt"},
		{Src: 2, Dst: 5, Scheme: "ssdt"},
	}}, http.StatusOK, &batch)
	if batch.Responses[0].Code != "overload" {
		t.Errorf("shed batch item code %q, want overload", batch.Responses[0].Code)
	}
	if batch.Responses[1].Tag == "" || batch.Responses[1].Error != "" {
		t.Errorf("SSDT batch item failed: %+v", batch.Responses[1])
	}
	if _, err := s.Route(3, 3, SchemeSSDT); err != nil {
		t.Errorf("SSDT during overload: %v", err)
	}
	getJSON(t, ts.URL+"/route?src=5&dst=6&scheme=ssdt", http.StatusOK, nil)
	if n := running.Load(); n != k {
		t.Fatalf("%d computes running after the shed requests, want %d", n, k)
	}

	// Finishing one compute frees its slot at once: the next TSDT request
	// is admitted, and the one after it sheds again.
	unblock <- struct{}{}
	if err := <-errs; err != nil {
		t.Errorf("admitted compute failed: %v", err)
	}
	go func() {
		_, err := s.Route(1, 6, SchemeTSDT)
		errs <- err
	}()
	<-entered
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrOverload) {
		t.Errorf("TSDT with the freed slot retaken: err=%v, want ErrOverload", err)
	}

	close(unblock)
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted compute failed: %v", err)
		}
	}

	// Admits: the priming compute, k flood computes and the refill. Sheds:
	// the rest of the flood, the primed repeat, the 429, the batch item
	// and the request after the refill.
	am := s.Metrics().Admission
	if am.Admitted != k+2 || am.Shed != G-k+4 || am.Depth != 0 || am.MaxQueue != k {
		t.Errorf("admission metrics %+v, want admitted %d, shed %d, depth 0, max %d", am, k+2, G-k+4, k)
	}
}

// TestGateStartsNoGoroutine: the gate is counters only, so services and
// hosts built and never drained leave nothing running.
func TestGateStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		NewMulti(Config{N: 8}, 1)
		if _, err := New(Config{N: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after 50 New and 50 NewMulti, %d before", after, before)
	}
}

// TestAdmissionDisabled: Disabled admits everything and reports itself off.
func TestAdmissionDisabled(t *testing.T) {
	s := mustService(t, Config{N: 8, Admission: AdmissionConfig{Disabled: true}})
	for i := 0; i < 20; i++ {
		if !s.adm.acquire() {
			t.Fatal("disabled gate refused work")
		}
	}
	if m := s.Metrics().Admission; m.Enabled {
		t.Error("disabled gate reports enabled")
	}
}
