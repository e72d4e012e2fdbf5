package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

func newTestServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(routesvc.NewMultiHandler(routesvc.NewMulti(routesvc.Config{N: n}, 0)))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunAgainstService drives a short closed loop with fault churn
// against an in-process service and checks the error-free contract the
// serve-smoke target relies on.
func TestRunAgainstService(t *testing.T) {
	ts := newTestServer(t, 64)
	cfg := loadConfig{
		addr:     ts.URL,
		workers:  2,
		duration: 300 * time.Millisecond,
		tsdtFrac: 0.3,
		zipfS:    1.3,
		churn:    0.05,
		seed:     1,
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

// TestRunBatchModeFlagsTamperedPaths: a server whose batch answers name
// the wrong destination fails the -check contract on the path clause
// alone. The tamper flips the first destination bit of every tag, so
// the path the client walks from it ends one switch off the request's
// dst; an untampered run of the same shape passes (TestRunBatchMode).
func TestRunBatchModeFlagsTamperedPaths(t *testing.T) {
	h := routesvc.NewMultiHandler(routesvc.NewMulti(routesvc.Config{N: 32}, 0))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/route/batch" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for i := 0; i+8 < len(body); i++ {
			if string(body[i:i+8]) == `"tag":"0` || string(body[i:i+8]) == `"tag":"1` {
				body[i+7] ^= 1
			}
		}
		routesvc.WriteBody(w, rec.Code, body)
	}))
	t.Cleanup(ts.Close)
	cfg := loadConfig{addr: ts.URL, workers: 1, duration: 100 * time.Millisecond, tsdtFrac: 0.5, batch: 4, seed: 7}
	var out strings.Builder
	sum, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum.total.badPaths == 0 || sum.total.badPaths != sum.successes() {
		t.Errorf("%d bad paths among %d answered items, want all of them", sum.total.badPaths, sum.successes())
	}
	v := sum.violations(cfg)
	if len(v) != 1 || !strings.Contains(v[0], "not n+1 switches from src to dst") {
		t.Errorf("violations %v, want the path clause alone\noutput:\n%s", v, out.String())
	}
}

func TestPathJoins(t *testing.T) {
	for _, c := range []struct {
		path        []int
		src, dst, n int
		want        bool
	}{
		{[]int{1, 3, 7, 6}, 1, 6, 3, true},
		{[]int{1, 3, 7, 6}, 2, 6, 3, false},
		{[]int{1, 3, 7, 6}, 1, 7, 3, false},
		{[]int{1, 3, 6}, 1, 6, 3, false},
		{[]int{1, 3, 7, 7, 6}, 1, 6, 3, false},
		{nil, 1, 6, 3, false},
	} {
		if got := pathJoins(c.path, c.src, c.dst, c.n); got != c.want {
			t.Errorf("pathJoins(%v, %d, %d, %d) = %v, want %v", c.path, c.src, c.dst, c.n, got, c.want)
		}
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
	var cfg loadConfig
	var s summary
	s.total.requests = 100
	s.metrics.Service.SSDT.Hits = 60
	if v := s.violations(cfg); len(v) != 0 {
		t.Errorf("clean summary flagged: %v", v)
	}

	s.total.transport = 1
	s.total.badStatus = 2
	s.total.itemErrors = 3
	s.total.badPaths = 1
	s.total.mutateErrors = 4
	s.metrics.HTTP5xx = 5
	s.metrics.Service.Admission = routesvc.AdmissionMetrics{Enabled: true, Admitted: 3}
	s.metrics.Service.TSDT.Misses = 2
	if v := s.violations(cfg); len(v) != 7 {
		t.Errorf("want 7 violations, got %d: %v", len(v), v)
	}

	// Every admission ticket is one TSDT computation. A ticket without
	// one (an SSDT request on the slow path) or a computation without one
	// fails the run on its own; with the gate disabled no ticket is
	// counted and the clause is off.
	for _, c := range []struct {
		adm      routesvc.AdmissionMetrics
		computed uint64
		fails    bool
	}{
		{routesvc.AdmissionMetrics{Enabled: true, Admitted: 4}, 4, false},
		{routesvc.AdmissionMetrics{Enabled: true, Admitted: 5}, 4, true},
		{routesvc.AdmissionMetrics{Enabled: true, Admitted: 3}, 4, true},
		{routesvc.AdmissionMetrics{}, 4, false},
	} {
		s = summary{}
		s.total.requests = 10
		s.metrics.Service.Admission = c.adm
		s.metrics.Service.TSDT.Misses = c.computed
		want := 0
		if c.fails {
			want = 1
		}
		if v := s.violations(cfg); len(v) != want || (c.fails && !strings.Contains(v[0], "SSDT reached the slow path")) {
			t.Errorf("admission %+v, %d TSDT computations: violations %v", c.adm, c.computed, v)
		}
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
	ts := httptest.NewServer(routesvc.NewMultiHandler(routesvc.NewMulti(routesvc.Config{
		N:         32,
		Admission: routesvc.AdmissionConfig{MaxQueue: 2},
		SlowCost:  2 * time.Millisecond,
	}, 0)))
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
		s.total.lat.Add(500)
		s.metrics.Service.Admission.Enabled = true
		s.metrics.Service.Admission.Admitted = 100
		s.metrics.Service.Admission.Shed = 300
		s.metrics.Service.TSDT.Misses = 100
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
	s.total.lat.Add(50000)
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

// TestClientP99PastTwentyMillis: client latencies far above 20 ms keep
// their percentiles, so a slow but bounded tail is not reported as its
// single worst request, in the report line or in the -max-p99us gate.
func TestClientP99PastTwentyMillis(t *testing.T) {
	var s summary
	s.total.requests = 1000
	s.total.shed = 100
	for i := uint64(0); i < 999; i++ {
		s.total.lat.Add(21000 + 10*i) // 21.00–30.98 ms
	}
	s.total.lat.Add(400000) // one 400 ms straggler
	s.metrics.Service.Admission.Enabled = true
	s.metrics.Service.Admission.Admitted = 100
	s.metrics.Service.Admission.Shed = 300
	s.metrics.Service.TSDT.Misses = 100

	lat := &s.total.lat
	if p99, up := lat.Percentile(99), lat.PercentileUpper(99); p99 >= lat.Max() || up >= lat.Max() || up < 30890 {
		t.Fatalf("p99 %d, upper edge %d, max %d: want p99 ≤ 30890 (exact) ≤ edge < max", p99, up, lat.Max())
	}
	cfg := loadConfig{overload: true, maxP99US: 40000, maxShedFrac: 0.9, minOverload: 2}
	if v := s.violations(cfg); len(v) != 0 {
		t.Errorf("31 ms p99 under a 40 ms bound flagged: %v", v)
	}
	cfg.maxP99US = 30000
	if v := s.violations(cfg); len(v) != 1 || !strings.Contains(v[0], "client p99") {
		t.Errorf("31 ms p99 over a 30 ms bound: violations %v", v)
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
