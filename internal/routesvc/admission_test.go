package routesvc

import (
	"errors"
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestNextThreshold pins the admission update rule as a pure function:
// counters in, threshold out, no clock anywhere.
func TestNextThreshold(t *testing.T) {
	const lo, hi = 8, 128
	cases := []struct {
		name    string
		cur, lo int
		r       admissionRound
		want    int
	}{
		{"saturated shed halves", 128, lo, admissionRound{Admitted: 100, Shed: 50}, 64},
		{"hit-dominated shed is gentle", 128, lo, admissionRound{Hits: 1000, Admitted: 100, Shed: 20}, 96},
		{"decrease clamps at floor", 9, lo, admissionRound{Admitted: 4, Shed: 4}, 8},
		{"floor holds under sustained shed", 8, lo, admissionRound{Shed: 100}, 8},
		{"clean round grows additively", 64, lo, admissionRound{Hits: 10, Admitted: 5}, 73},
		{"hits alone grow too", 64, lo, admissionRound{Hits: 10}, 73},
		{"growth clamps at ceiling", 120, lo, admissionRound{Admitted: 5}, 128},
		{"idle round holds", 64, lo, admissionRound{}, 64},
		{"idle round holds at floor", 8, lo, admissionRound{}, 8},
		{"small threshold still decreases", 2, 1, admissionRound{Admitted: 1, Shed: 1}, 1},
	}
	for _, c := range cases {
		if got := nextThreshold(c.cur, c.lo, hi, c.r); got != c.want {
			t.Errorf("%s: nextThreshold(%d) = %d, want %d", c.name, c.cur, got, c.want)
		}
	}

	// A sustained flood converges from ceiling to floor in a few rounds.
	cur, rounds := hi, 0
	for cur > lo {
		cur = nextThreshold(cur, lo, hi, admissionRound{Admitted: uint64(cur), Shed: 100})
		rounds++
		if rounds > 10 {
			t.Fatalf("threshold stuck at %d after 10 congested rounds", cur)
		}
	}

	// And recovers to the ceiling once sheds stop.
	rounds = 0
	for cur < hi {
		cur = nextThreshold(cur, lo, hi, admissionRound{Hits: 50, Admitted: 10})
		rounds++
		if rounds > 40 {
			t.Fatalf("threshold stuck at %d after 40 clean rounds", cur)
		}
	}
}

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

// TestOverloadShedsSlowPathOnly floods the slow path past a tiny admission
// bound and checks the tiering contract under -race: TSDT computes beyond
// the bound shed with ErrOverload, while SSDT requests always flow.
func TestOverloadShedsSlowPathOnly(t *testing.T) {
	s := mustService(t, Config{
		N:         8,
		Admission: AdmissionConfig{MaxQueue: 2, MinQueue: 1, Round: -1},
	})
	// Prime one TSDT pair: repeating it during the flood is a computation
	// again, so it needs a ticket too.
	if _, err := s.Route(0, 1, SchemeTSDT); err != nil {
		t.Fatal(err)
	}

	const G = 6
	entered := make(chan struct{}, G)
	unblock := make(chan struct{})
	s.testComputeHook = func(sc Scheme) {
		if sc == SchemeTSDT {
			entered <- struct{}{}
			<-unblock
		}
	}

	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			// Distinct (src, dst) pairs: no coalescing between them.
			_, err := s.Route(g, 7-g, SchemeTSDT)
			errs <- err
		}(g)
	}

	// Exactly MaxQueue computes enter the slow path and block in the
	// hook; every other flood request must shed immediately.
	<-entered
	<-entered
	shed := 0
	for i := 0; i < G-2; i++ {
		if err := <-errs; errors.Is(err, ErrOverload) {
			shed++
		} else {
			t.Errorf("flood request returned %v, want ErrOverload", err)
		}
	}
	if shed != G-2 {
		t.Fatalf("shed %d requests, want %d", shed, G-2)
	}

	// The fast path is untouched while the slow path is saturated; a
	// TSDT pair served before is slow path like any other.
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrOverload) {
		t.Errorf("primed TSDT pair during overload: err=%v, want ErrOverload", err)
	}
	if _, err := s.Route(3, 3, SchemeSSDT); err != nil {
		t.Errorf("SSDT during overload: %v", err)
	}

	// One controller round under congestion drops the threshold.
	s.adm.step()
	if thr := s.adm.threshold.Load(); thr != 1 {
		t.Errorf("threshold after congested round = %d, want 1", thr)
	}

	close(unblock)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted compute failed: %v", err)
		}
	}

	// Lifetime admits: the priming compute plus the two flood computes;
	// sheds: the rest of the flood plus the primed pair's repeat.
	am := s.Metrics().Admission
	if am.Shed != uint64(G-1) || am.Admitted != 3 {
		t.Errorf("admission metrics shed=%d admitted=%d, want %d/3", am.Shed, am.Admitted, G-1)
	}
	if am.FastHits == 0 {
		t.Error("fast-path hits not counted")
	}

	// A clean round recovers the threshold toward the ceiling.
	if _, err := s.Route(0, 1, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	s.adm.step()
	if thr := s.adm.threshold.Load(); thr != 2 {
		t.Errorf("threshold after clean round = %d, want 2", thr)
	}
}

// TestAdmissionDisabled: Disabled admits everything and reports itself off.
func TestAdmissionDisabled(t *testing.T) {
	s := mustService(t, Config{N: 8, Admission: AdmissionConfig{Disabled: true, Round: -1}})
	for i := 0; i < 20; i++ {
		if !s.adm.acquire() {
			t.Fatal("disabled gate refused work")
		}
	}
	if m := s.Metrics().Admission; m.Enabled {
		t.Error("disabled gate reports enabled")
	}
}
