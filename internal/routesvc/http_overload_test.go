package routesvc

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestHTTPMutateAtomic is the regression test for half-applied mutation
// batches: a malformed or invalid spec anywhere in a /fault or /repair
// body must leave the blockage map and epoch completely untouched.
func TestHTTPMutateAtomic(t *testing.T) {
	svc, ts := newTestServer(t, Config{N: 8})

	check := func(when string, wantFaults int, wantEpoch uint64) {
		t.Helper()
		if got := len(svc.Faults()); got != wantFaults {
			t.Errorf("%s: %d blocked links, want %d", when, got, wantFaults)
		}
		if got := svc.Epoch(); got != wantEpoch {
			t.Errorf("%s: epoch %d, want %d", when, got, wantEpoch)
		}
	}

	// A parse failure after a valid link: nothing is applied.
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"0:1:-", "bogus"}}, http.StatusBadRequest, nil)
	check("malformed link mid-batch", 0, 0)

	// A semantically invalid switch (stage 0 is the input column) after a
	// valid link: the link must not be blocked either.
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"0:1:-"}, Switches: []string{"0:3"}}, http.StatusBadRequest, nil)
	check("invalid switch mid-batch", 0, 0)

	// Establish one fault, then fail a repair batch mid-list: the fault
	// must survive.
	var mut MutateJSON
	postJSON(t, ts.URL+"/fault", MutateJSON{Links: []string{"0:1:-"}}, http.StatusOK, &mut)
	if mut.Changed != 1 {
		t.Fatalf("setup fault changed %d", mut.Changed)
	}
	postJSON(t, ts.URL+"/repair", MutateJSON{Links: []string{"0:1:-", "bogus"}}, http.StatusBadRequest, nil)
	check("malformed repair mid-batch", 1, 1)
}

// TestHTTPMutateAckMatchesMap: every /fault and /repair ack reports the
// blocked-link count and epoch of the map it left behind, across mixed
// link faults, repairs, no-op reports and switch faults.
func TestHTTPMutateAckMatchesMap(t *testing.T) {
	svc, ts := newTestServer(t, Config{N: 16})
	for i, step := range []struct {
		path string
		body MutateJSON
	}{
		{"/fault", MutateJSON{Links: []string{"0:1:-", "1:4:+"}}},
		{"/fault", MutateJSON{Links: []string{"0:1:-"}}}, // no-op
		{"/fault", MutateJSON{Switches: []string{"2:5"}}},
		{"/repair", MutateJSON{Links: []string{"1:4:+"}}},
		{"/repair", MutateJSON{Links: []string{"3:9:+"}}}, // no-op
		{"/fault", MutateJSON{Links: []string{"3:9:-"}, Switches: []string{"1:0"}}},
		{"/repair", MutateJSON{Links: []string{"0:1:-", "3:9:-"}}},
	} {
		var ack MutateJSON
		postJSON(t, ts.URL+step.path, step.body, http.StatusOK, &ack)
		if blocked, epoch := len(svc.Faults()), svc.Epoch(); ack.Blocked != blocked || ack.Epoch != epoch {
			t.Fatalf("step %d %s %+v: ack blocked=%d epoch=%d, map has %d blocked at epoch %d",
				i, step.path, step.body, ack.Blocked, ack.Epoch, blocked, epoch)
		}
	}
}

// TestHTTPOverload drives the admission gate through the HTTP surface:
// shed slow-path requests answer 429 with Retry-After, shed batch items
// carry code "overload" inside a 200, and the fast path keeps serving.
func TestHTTPOverload(t *testing.T) {
	svc, ts := newTestServer(t, Config{
		N:         8,
		Admission: AdmissionConfig{MaxQueue: 1},
	})

	entered := make(chan struct{}, 1)
	unblock := make(chan struct{})
	svc.testComputeHook = func(sc Scheme) {
		if sc == SchemeTSDT {
			entered <- struct{}{}
			<-unblock
		}
	}

	// Occupy the single slow-path slot with a TSDT compute parked in the
	// hook; everything below runs against a saturated gate.
	done := make(chan struct{})
	go func() {
		defer close(done)
		getJSON(t, ts.URL+"/route?src=1&dst=2&scheme=tsdt", http.StatusOK, nil)
	}()
	<-entered

	// The slow path is full: a second fresh TSDT request sheds as 429
	// with a Retry-After hint and a classifiable error code.
	resp, err := http.Get(ts.URL + "/route?src=3&dst=4&scheme=tsdt")
	if err != nil {
		t.Fatal(err)
	}
	var e errJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request status %d, want 429 (%+v)", resp.StatusCode, e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if e.Code != "overload" {
		t.Errorf("429 code %q, want overload", e.Code)
	}

	// The fast path flows while the slow path is saturated.
	getJSON(t, ts.URL+"/route?src=5&dst=6&scheme=ssdt", http.StatusOK, nil)

	// A batch mixing a shed slow-path item with a fast-path item returns
	// 200 with the shed item individually marked.
	var batch BatchJSON
	postJSON(t, ts.URL+"/route/batch", BatchJSON{Requests: []RouteJSON{
		{Src: 2, Dst: 5, Scheme: "tsdt"},
		{Src: 2, Dst: 5, Scheme: "ssdt"},
	}}, http.StatusOK, &batch)
	if batch.Responses[0].Code != "overload" {
		t.Errorf("shed batch item code %q, want overload", batch.Responses[0].Code)
	}
	if batch.Responses[1].Tag == "" || batch.Responses[1].Error != "" {
		t.Errorf("fast-path batch item failed: %+v", batch.Responses[1])
	}

	close(unblock)
	<-done

	var m MetricsJSON
	getJSON(t, ts.URL+"/metrics", http.StatusOK, &m)
	if m.HTTP429 == 0 {
		t.Error("http_429 counter not incremented")
	}
	if m.HTTP5xx != 0 {
		t.Errorf("http_5xx = %d during overload, want 0", m.HTTP5xx)
	}
	if adm := m.Service.Admission; adm.Shed < 2 || adm.Admitted == 0 {
		t.Errorf("admission metrics %+v, want >=2 sheds and >=1 admit", adm)
	}
}
