package fleet

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

// The tracked fleet suite, emitted into BENCH_fleet.json and gated by
// `make bench-compare`:
//
//   - BenchmarkRingOwner: the per-item placement cost on the router's
//     hot path (must stay 0 allocs/op);
//   - BenchmarkFleetRouteSingle{Direct,Routed}: one /route round trip
//     against a backend vs through the router — the difference is the
//     router's added latency (the <15% p50 overhead criterion);
//   - BenchmarkFleetBatch{Direct,Routed}/n: a /route/batch round trip
//     at several batch sizes, reporting ns/route — Routed vs Direct is
//     the scatter-gather fan-out cost as a function of batch size.
//
// All servers are in-process (httptest over loopback), so the numbers
// isolate software overhead, not network distance.

func BenchmarkRingOwner(b *testing.B) {
	r, err := NewRing(testBackends(3), 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	r.ReplicaSet("p0")
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		owner, _ := r.Owner("p0", i&63, (i*7)&63)
		sink += owner
	}
	_ = sink
}

// benchBackend boots one multi-network backend and returns a client for
// it. slow > 0 arms the SlowCost big-fabric model (every
// fresh TSDT computation costs that much), for the loaded overhead pair.
func benchBackend(b *testing.B, slow time.Duration) *routesvc.Client {
	b.Helper()
	m := routesvc.NewMulti(routesvc.Config{
		N:         1024,
		Admission: routesvc.AdmissionConfig{Disabled: true},
		SlowCost:  slow,
	}, 8)
	srv := httptest.NewServer(routesvc.NewMultiHandler(m))
	b.Cleanup(func() {
		srv.Close()
		m.Drain()
	})
	return routesvc.NewClient(srv.URL, 10*time.Second)
}

// benchFleet boots nb backends behind a router and returns a client for
// the router.
func benchFleet(b *testing.B, nb, replicas int, slow time.Duration) *routesvc.Client {
	b.Helper()
	bases := make([]string, nb)
	for i := 0; i < nb; i++ {
		m := routesvc.NewMulti(routesvc.Config{
			N:         1024,
			Admission: routesvc.AdmissionConfig{Disabled: true},
			SlowCost:  slow,
		}, 8)
		srv := httptest.NewServer(routesvc.NewMultiHandler(m))
		b.Cleanup(func() {
			srv.Close()
			m.Drain()
		})
		bases[i] = srv.URL
	}
	rt, err := New(Config{Backends: bases, Replicas: replicas})
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Probe(); err != nil {
		b.Fatal(err)
	}
	fsrv := httptest.NewServer(rt)
	b.Cleanup(fsrv.Close)
	return routesvc.NewClient(fsrv.URL, 10*time.Second)
}

func benchSingles(b *testing.B, c *routesvc.Client) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.Route("p0", i&1023, (i*7)&1023, routesvc.SchemeSSDT)
		if err != nil || out.Error != "" {
			b.Fatalf("route: %v %s", err, out.Error)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/route")
}

func BenchmarkFleetRouteSingleDirect(b *testing.B) {
	benchSingles(b, benchBackend(b, 0))
}

func BenchmarkFleetRouteSingleRouted(b *testing.B) {
	benchSingles(b, benchFleet(b, 3, 2, 0))
}

// The hot-cache Single pair above is the router's worst case — a second
// loopback HTTP hop stacked on a sub-100 µs request. Against realistic
// slow-path work the same hop is a few percent; fleet_smoke.sh measures
// that p50 overhead empirically (iadmload against a slow-path-bound
// backend directly vs through the router) because a time.Sleep-based
// benchmark here is hostage to kernel timer granularity and too noisy
// for the bench-compare gate.

var benchBatchSizes = []int{64, 256, 1024}

func benchBatches(b *testing.B, c *routesvc.Client, size int) {
	b.Helper()
	reqs := make([]routesvc.RouteJSON, size)
	for i := range reqs {
		reqs[i] = routesvc.RouteJSON{
			Net: fmt.Sprintf("p%d", i%4), Src: i & 1023, Dst: (i*31 + 7) & 1023, Scheme: "ssdt",
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := c.RouteBatch(reqs)
		if err != nil {
			b.Fatalf("batch: %v", err)
		}
		if len(out.Responses) != size {
			b.Fatalf("batch answered %d items, want %d", len(out.Responses), size)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*uint64(size)), "ns/route")
}

func BenchmarkFleetBatchDirect(b *testing.B) {
	for _, size := range benchBatchSizes {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			benchBatches(b, benchBackend(b, 0), size)
		})
	}
}

func BenchmarkFleetBatchRouted(b *testing.B) {
	for _, size := range benchBatchSizes {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			benchBatches(b, benchFleet(b, 3, 2, 0), size)
		})
	}
}
