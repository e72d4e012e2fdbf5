package routesvc

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"iadm/internal/stats"
)

// serveEveryEndpoint sends one request to each endpoint a Handler (or a
// fleet router) serves, in process.
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

// heapInUse is the live heap after the collections that also empty the
// sync.Pools.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHandlerFootprint bounds what a Handler keeps resident once every
// endpoint has served: the latency histograms grow on demand, so 16
// handlers stay within 16 KiB each (six preallocated 4,096-bucket
// streams would be 192 KiB each). The networks exist before the baseline,
// and one handler served before it fills the process-wide caches
// (encoding/json's type cache and the like) that no handler owns.
func TestHandlerFootprint(t *testing.T) {
	const handlers = 16
	multis := make([]*Multi, handlers+1)
	for i := range multis {
		multis[i] = NewMulti(Config{N: 64, Admission: AdmissionConfig{Disabled: true}}, 4)
		t.Cleanup(multis[i].Drain)
		if _, err := multis[i].Get(DefaultNet); err != nil {
			t.Fatal(err)
		}
	}
	primer := NewMultiHandler(multis[handlers])
	serveEveryEndpoint(t, primer)
	hs := make([]*Handler, handlers)
	before := heapInUse()
	for i := range hs {
		hs[i] = NewMultiHandler(multis[i])
		serveEveryEndpoint(t, hs[i])
	}
	delta := heapInUse() - before
	runtime.KeepAlive(primer)
	runtime.KeepAlive(hs)
	if delta > handlers*16<<10 {
		t.Fatalf("%d handlers hold %d KiB (%d KiB each), budget 16 KiB each", handlers, delta>>10, delta/handlers>>10)
	}
	t.Logf("%d handlers hold %d KiB", handlers, delta>>10)
}

// TestMergeMetricsJSONEndpoints merges two handlers' scraped documents,
// through their JSON form, and requires every endpoint to equal the
// stats.Latency merge of the two histograms; an endpoint of another
// geometry is dropped, not mixed in.
func TestMergeMetricsJSONEndpoints(t *testing.T) {
	var docs []MetricsJSON
	for i := 0; i < 2; i++ {
		m := NewMulti(Config{N: 64, Admission: AdmissionConfig{Disabled: true}}, 4)
		t.Cleanup(m.Drain)
		h := NewMultiHandler(m)
		for k := 0; k <= i; k++ {
			serveEveryEndpoint(t, h)
		}
		raw, err := json.Marshal(h.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		var doc MetricsJSON
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	var dst MetricsJSON
	MergeMetricsJSON(&dst, docs[0])
	MergeMetricsJSON(&dst, docs[1])
	if len(dst.Endpoints) != 6 {
		t.Fatalf("merged %d endpoints, want 6: %v", len(dst.Endpoints), dst.Endpoints)
	}
	for path, got := range dst.Endpoints {
		a, okA := docs[0].Endpoints[path].histogram()
		b, okB := docs[1].Endpoints[path].histogram()
		if !okA || !okB {
			t.Fatalf("%s: scraped histogram does not rebuild", path)
		}
		a.Merge(&b)
		want := newEndpointJSON(&a)
		if got.Count != 3 || want.Count != 3 {
			t.Fatalf("%s: merged count %d, want 3 (1 + 2 calls)", path, got.Count)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("%s: merged\n %s\nwant\n %s", path, gj, wj)
		}
	}

	// Another geometry cannot merge exactly: its endpoints are dropped
	// and the rest merge as before.
	alien := docs[1]
	alien.Endpoints = map[string]EndpointJSON{"/route": {Count: 1, MaxUS: 5, SumUS: 5, MinUS: 5, SubBits: stats.LatencySubBits + 1, Buckets: [][2]uint64{{5, 1}}}}
	before := dst.Endpoints["/route"]
	MergeMetricsJSON(&dst, alien)
	if after := dst.Endpoints["/route"]; after.Count != before.Count || after.SumUS != before.SumUS {
		t.Fatalf("alien geometry merged: before %+v after %+v", before, after)
	}
	// So is an endpoint whose buckets do not add up to its count.
	short := docs[1]
	short.Endpoints = map[string]EndpointJSON{"/healthz": {Count: 2, SubBits: stats.LatencySubBits, Buckets: [][2]uint64{{5, 1}}}}
	var one MetricsJSON
	MergeMetricsJSON(&one, short)
	if _, ok := one.Endpoints["/healthz"]; ok {
		t.Fatal("inconsistent endpoint merged")
	}
}
