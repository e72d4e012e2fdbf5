package routesvc

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// BenchmarkServeLadder is the serving latency ladder (tracked in
// BENCH_serve.json): the same warmed request measured at each layer of a
// backend, in ns/route and allocs/route, for one /route single (n=1) and
// /route/batch batches of 64, 256 and 1024 items. Rungs:
//
//   - service: Service.Route (n=1) or Service.RouteBatch — tag resolution
//     plus the scalar or 64-lane sliced path walk;
//   - handler: the Handler on an httptest.ResponseRecorder — request
//     decode, tag resolution and response encode, no socket;
//   - encode: the wire codec rendering the response from the Results;
//   - decode: the wire codec parsing that response back, as Client does —
//     for a batch including the completion (echo from the requests, paths
//     expanded by the sliced kernel);
//   - scan (batches only): AppendBatchItems on the request body, the fleet
//     router's pass that places every item;
//   - split (batches only): AppendBatchResponses on the response body, the
//     router's pass that cuts a backend's answer at item boundaries.
//
// Batches are answered, encoded, decoded and split in the tag shape
// (?answers=tags) that Client.RouteBatch asks for; the single in the
// full /route shape. For the single, handler − service is the whole
// HTTP-and-codec cost of one backend hop; a batch's service rung also
// walks the paths that a tag answer leaves to the client's decode.
// encode and decode split out the codec's part of a hop, and scan and
// split the codec's part of a router hop.

var ladderSizes = []int{1, 64, 256, 1024}

const ladderN = 1024

// ladderRequests is a deterministic half-SSDT, half-TSDT request mix
// over scattered pairs of the "p0" network.
func ladderRequests(n int) []RouteJSON {
	reqs := make([]RouteJSON, n)
	for i := range reqs {
		h := uint64(i+1) * 0x9E3779B97F4A7C15
		reqs[i] = RouteJSON{Net: "p0", Src: int(h >> 20 % ladderN), Dst: int(h >> 40 % ladderN), Scheme: []string{"ssdt", "tsdt"}[i%2]}
	}
	return reqs
}

func ladderRequestsOf(wire []RouteJSON) []Request {
	reqs := make([]Request, len(wire))
	for i, r := range wire {
		sc, _ := ParseScheme(r.Scheme)
		reqs[i] = Request{Src: r.Src, Dst: r.Dst, Scheme: sc}
	}
	return reqs
}

// reportPerRoute reports the per-route cost of a benchmark loop that
// served b.N operations of n routes each, and its heap allocations.
func reportPerRoute(b *testing.B, n int, mallocs0 uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	routes := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/routes, "ns/route")
	b.ReportMetric(float64(ms.Mallocs-mallocs0)/routes, "allocs/route")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func BenchmarkServeLadder(b *testing.B) {
	m := NewMulti(Config{N: ladderN, Admission: AdmissionConfig{Disabled: true}}, 1)
	b.Cleanup(m.Drain)
	svc, err := m.Get("p0")
	if err != nil {
		b.Fatal(err)
	}
	h := NewMultiHandler(m)
	for _, n := range ladderSizes {
		wire := ladderRequests(n)
		reqs := ladderRequestsOf(wire)
		// Warm every tag, so each rung measures the hot path.
		results, err := svc.RouteBatch(reqs)
		if err != nil {
			b.Fatal(err)
		}
		path, body := TagAnswers.BatchPath(), appendBatchJSON(nil, &BatchJSON{Requests: wire})
		response := appendTagResults(nil, results, svc.Epoch())
		if n == 1 {
			path, body = "/route", AppendRouteJSON(nil, &wire[0], false)
			response = appendResult(nil, "p0", &results[0])
		}

		b.Run(fmt.Sprintf("rung=service/n=%d", n), func(b *testing.B) {
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if n == 1 {
					_, err = svc.Route(reqs[0].Src, reqs[0].Dst, reqs[0].Scheme)
				} else {
					_, err = svc.RouteBatch(reqs)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPerRoute(b, n, m0)
		})
		b.Run(fmt.Sprintf("rung=handler/n=%d", n), func(b *testing.B) {
			rd := bytes.NewReader(body)
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, rd))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			reportPerRoute(b, n, m0)
		})
		b.Run(fmt.Sprintf("rung=encode/n=%d", n), func(b *testing.B) {
			buf := make([]byte, 0, 2*len(response))
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n == 1 {
					buf = appendResult(buf[:0], "p0", &results[0])
				} else {
					buf = appendTagResults(buf[:0], results, 1)
				}
			}
			reportPerRoute(b, n, m0)
		})
		b.Run(fmt.Sprintf("rung=decode/n=%d", n), func(b *testing.B) {
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if n == 1 {
					var out RouteJSON
					err = DecodeRouteJSON(response, &out)
				} else {
					var out BatchJSON
					err = decodeTagAnswers(response, wire, &out)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			reportPerRoute(b, n, m0)
		})
		if n == 1 {
			continue
		}
		b.Run(fmt.Sprintf("rung=scan/n=%d", n), func(b *testing.B) {
			items := make([]BatchItem, 0, n)
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if items, err = AppendBatchItems(items[:0], body); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRoute(b, n, m0)
		})
		b.Run(fmt.Sprintf("rung=split/n=%d", n), func(b *testing.B) {
			spans := make([][]byte, 0, n)
			m0 := mallocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if spans, _, err = AppendBatchResponses(spans[:0], response); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRoute(b, n, m0)
		})
	}
}
