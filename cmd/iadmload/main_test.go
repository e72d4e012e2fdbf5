package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

func newTestServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	svc, err := routesvc.New(routesvc.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(routesvc.NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunAgainstService drives a short closed loop with fault churn
// against an in-process service and checks the error-free contract the
// serve-smoke target relies on.
func TestRunAgainstService(t *testing.T) {
	ts := newTestServer(t, 64)
	cfg := loadConfig{
		addr:       ts.URL,
		workers:    2,
		duration:   300 * time.Millisecond,
		tsdtFrac:   0.3,
		zipfS:      1.3,
		churn:      0.05,
		seed:       1,
		minSSDTHit: 0.5,
	}
	var out strings.Builder
	sum, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if sum.total.requests == 0 {
		t.Fatal("no requests completed")
	}
	if sum.n != 64 {
		t.Errorf("learned N=%d from /healthz, want 64", sum.n)
	}
	if sum.total.faults == 0 || sum.total.repairs != sum.total.faults {
		t.Errorf("churn not balanced: %d faults, %d repairs", sum.total.faults, sum.total.repairs)
	}
	if sum.metrics.Controller.BlockedLinks != 0 {
		t.Errorf("%d links left blocked after the run", sum.metrics.Controller.BlockedLinks)
	}
	if v := sum.violations(cfg); len(v) > 0 {
		t.Errorf("check contract violated: %v\noutput:\n%s", v, out.String())
	}
	if sum.throughput() <= 0 {
		t.Errorf("throughput %.1f", sum.throughput())
	}
}

func TestRunBatchMode(t *testing.T) {
	ts := newTestServer(t, 32)
	cfg := loadConfig{
		addr:     ts.URL,
		workers:  2,
		duration: 200 * time.Millisecond,
		tsdtFrac: 0.5,
		batch:    4,
		seed:     7,
	}
	var out strings.Builder
	sum, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.total.requests == 0 || sum.total.requests%4 != 0 {
		t.Errorf("batch request count %d not a positive multiple of 4", sum.total.requests)
	}
	if v := sum.violations(cfg); len(v) > 0 {
		t.Errorf("check contract violated: %v\noutput:\n%s", v, out.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ts := newTestServer(t, 8)
	var out strings.Builder
	bad := []loadConfig{
		{addr: ts.URL, workers: 0, duration: time.Millisecond},
		{addr: ts.URL, workers: 1, duration: time.Millisecond, tsdtFrac: 1.5},
		{addr: ts.URL, workers: 1, duration: time.Millisecond, churn: -0.1},
		{addr: "127.0.0.1:1", workers: 1, duration: time.Millisecond}, // nothing listening
	}
	for i, cfg := range bad {
		if _, err := run(cfg, &out); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestViolations exercises the -check contract on synthetic summaries.
func TestViolations(t *testing.T) {
	cfg := loadConfig{minSSDTHit: 0.9}
	var s summary
	s.total.requests = 100
	s.metrics.Service.SSDTHitRate = 0.95
	if v := s.violations(cfg); len(v) != 0 {
		t.Errorf("clean summary flagged: %v", v)
	}

	s.total.transport = 1
	s.total.badStatus = 2
	s.total.itemErrors = 3
	s.total.mutateErrors = 4
	s.metrics.HTTP5xx = 5
	s.metrics.Service.SSDTHitRate = 0.1
	if v := s.violations(cfg); len(v) != 6 {
		t.Errorf("want 6 violations, got %d: %v", len(v), v)
	}

	// A pure-TSDT run must not be held to the SSDT hit-rate floor.
	cfg.tsdtFrac = 1
	s = summary{}
	s.total.requests = 10
	if v := s.violations(cfg); len(v) != 0 {
		t.Errorf("pure-TSDT run flagged: %v", v)
	}

	var empty summary
	if v := empty.violations(loadConfig{tsdtFrac: 1}); len(v) != 1 {
		t.Errorf("empty run should report exactly the zero-requests violation, got %v", v)
	}
}

// TestRunOverload drives the saturation contract end to end against an
// in-process daemon with a tiny admission bound and an artificially slow
// slow path: sheds must appear, the service must keep answering, and the
// overload -check gate must pass.
func TestRunOverload(t *testing.T) {
	svc, err := routesvc.New(routesvc.Config{
		N: 32,
		Admission: routesvc.AdmissionConfig{
			MaxQueue: 2,
			MinQueue: 1,
			Round:    20 * time.Millisecond,
		},
		SlowCost: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(routesvc.NewHandler(svc))
	t.Cleanup(ts.Close)

	cfg := loadConfig{
		addr:        ts.URL,
		workers:     8,
		duration:    500 * time.Millisecond,
		tsdtFrac:    1, // every request is slow-path eligible
		seed:        3,
		overload:    true,
		maxP99US:    20000,
		maxShedFrac: 0.999,
		minOverload: 2,
	}
	var out strings.Builder
	sum, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if sum.sheds() == 0 {
		t.Fatalf("no sheds observed; admission gate never engaged\noutput:\n%s", out.String())
	}
	if sum.metrics.Service.Admission.Shed == 0 {
		t.Error("server-side shed counter is zero")
	}
	successes := sum.total.requests - sum.total.transport - sum.total.badStatus -
		sum.total.itemErrors - sum.sheds()
	if successes <= 0 {
		t.Errorf("service collapsed: %d successes of %d requests", successes, sum.total.requests)
	}
	if f := sum.overloadFactor(); f < 2 {
		t.Errorf("overload factor %.2f, want >= 2x", f)
	}
	if v := sum.violations(cfg); len(v) > 0 {
		t.Errorf("overload check violated: %v\noutput:\n%s", v, out.String())
	}
	if !strings.Contains(out.String(), "overload:") {
		t.Errorf("summary missing overload line:\n%s", out.String())
	}
}

// TestViolationsOverload exercises the overload branch of the -check
// contract on synthetic summaries.
func TestViolationsOverload(t *testing.T) {
	cfg := loadConfig{overload: true, maxP99US: 20000, maxShedFrac: 0.9, minOverload: 4}

	mk := func() summary {
		var s summary
		s.total.requests = 1000
		s.total.shed = 100
		s.total.lat = newLatStream()
		s.total.lat.Add(500)
		s.metrics.Service.Admission.Enabled = true
		s.metrics.Service.Admission.Admitted = 100
		s.metrics.Service.Admission.Shed = 300
		return s
	}
	if s := mk(); len(s.violations(cfg)) != 0 {
		t.Errorf("clean overload summary flagged: %v", s.violations(cfg))
	}

	// No server sheds: the run never saturated the slow path.
	s := mk()
	s.metrics.Service.Admission.Shed = 0
	if v := s.violations(cfg); len(v) != 2 { // no sheds + factor below min
		t.Errorf("unsaturated run: want 2 violations, got %v", v)
	}

	// Admission disabled on the server.
	s = mk()
	s.metrics.Service.Admission.Enabled = false
	if v := s.violations(cfg); len(v) != 1 {
		t.Errorf("disabled admission: want 1 violation, got %v", v)
	}

	// Total collapse: everything shed.
	s = mk()
	s.total.shed = s.total.requests
	if v := s.violations(cfg); len(v) != 2 { // collapse + shed fraction
		t.Errorf("collapsed run: want 2 violations, got %v", v)
	}

	// Tail blew past the bound.
	s = mk()
	s.total.lat.Add(50000) // lands in the overflow bin
	cfgTight := cfg
	cfgTight.maxP99US = 1000
	if v := s.violations(cfgTight); len(v) != 1 {
		t.Errorf("slow tail: want 1 violation, got %v", v)
	}

	// Sheds without -overload are a mis-tuned smoke scenario.
	s = mk()
	if v := s.violations(loadConfig{tsdtFrac: 1}); len(v) != 1 {
		t.Errorf("sheds without -overload: want 1 violation, got %v", v)
	}
}

// TestChurnClaimsOneNonstraightPerSwitch: churn never blocks both
// nonstraight links of one switch (which would disconnect every pair
// that must leave it nonstraight), whichever workers draw them.
func TestChurnClaimsOneNonstraightPerSwitch(t *testing.T) {
	c := &churnClaims{held: map[string]bool{}}
	if !c.claim("2:49:+") {
		t.Fatal("free switch refused")
	}
	if c.claim("2:49:-") || c.claim("2:49:+") {
		t.Fatal("second fault on a held switch claimed")
	}
	if !c.claim("2:48:-") || !c.claim("3:49:-") {
		t.Fatal("other switches refused")
	}
	c.release("2:49:+")
	if !c.claim("2:49:-") {
		t.Fatal("released switch refused")
	}
}
