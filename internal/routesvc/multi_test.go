package routesvc

import (
	"errors"
	"testing"

	"iadm/internal/topology"
)

func newTestMulti(t *testing.T, maxNets int) *Multi {
	t.Helper()
	return NewMulti(Config{N: 64, Admission: AdmissionConfig{Disabled: true}}, maxNets)
}

func TestMultiLazyCreationAndCap(t *testing.T) {
	m := newTestMulti(t, 2)
	defer m.Drain()

	a, err := m.Get("p0")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := m.Get("p0"); again != a {
		t.Fatal("second Get(p0) built a new Service")
	}
	if _, err := m.Get(""); err != nil {
		t.Fatalf("Get(\"\") (DefaultNet): %v", err)
	}
	if _, err := m.Get("p2"); !errors.Is(err, ErrTooManyNets) {
		t.Fatalf("Get over cap: err=%v, want ErrTooManyNets", err)
	}
	if got := m.Nets(); len(got) != 2 || got[0] != "p0" || got[1] != DefaultNet {
		t.Fatalf("Nets()=%v, want [p0 %s] in creation order", got, DefaultNet)
	}
}

// TestMultiEpochIsolation pins the partition semantics the fleet fault
// fan-out relies on: a fault on one network bumps only that network's
// epoch, so sibling partitions on the same backend keep their TSDT
// caches (Theorem 3.2 invalidation stays scoped to the mutated map).
func TestMultiEpochIsolation(t *testing.T) {
	m := newTestMulti(t, 4)
	defer m.Drain()

	a, _ := m.Get("p0")
	b, _ := m.Get("p1")

	// Warm a TSDT entry on both nets.
	for _, s := range []*Service{a, b} {
		if _, err := s.Route(3, 9, SchemeTSDT); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := a.ReportFault(topology.Link{Stage: 2, From: 0, Kind: topology.Plus}); err != nil {
		t.Fatal(err)
	}
	if a.Epoch() == 0 {
		t.Fatal("fault did not bump p0's epoch")
	}
	if b.Epoch() != 0 {
		t.Fatalf("fault on p0 bumped p1's epoch to %d", b.Epoch())
	}

	// p1's cached tag must still hit; p0's must have been invalidated.
	resB, err := b.Route(3, 9, SchemeTSDT)
	if err != nil || !resB.Cached {
		t.Fatalf("p1 route after p0 fault: cached=%v err=%v, want hit", resB.Cached, err)
	}
	resA, err := a.Route(3, 9, SchemeTSDT)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Cached {
		t.Fatal("p0 served a stale TSDT tag across its own fault")
	}
}

func TestMultiMetricsMergeAndSharedGate(t *testing.T) {
	m := NewMulti(Config{N: 64}, 4) // admission enabled: the gate is shared
	defer m.Drain()

	a, _ := m.Get("p0")
	b, _ := m.Get("p1")
	if a.adm != b.adm {
		t.Fatal("nets of one Multi must share one admission gate")
	}
	for i := 0; i < 10; i++ {
		if _, err := a.Route(i, (i*7)%64, SchemeTSDT); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Route(1, 2, SchemeTSDT); err != nil {
		t.Fatal(err)
	}

	merged, nets := m.Metrics()
	if merged.Requests != 11 {
		t.Fatalf("merged requests=%d, want 11", merged.Requests)
	}
	if len(nets) != 2 || nets[0].Net != "p0" || nets[1].Net != "p1" {
		t.Fatalf("per-net summaries=%v, want p0,p1 sorted", nets)
	}
	if nets[0].Requests != 10 || nets[1].Requests != 1 {
		t.Fatalf("per-net requests=%d,%d, want 10,1", nets[0].Requests, nets[1].Requests)
	}
	// The shared gate's counters must appear once, not once per net: the
	// 11 slow-path admissions all went through one gate.
	if got := merged.Admission.Admitted; got != 11 {
		t.Fatalf("merged admission.admitted=%d, want 11 (gate snapshot, not a k-fold sum)", got)
	}

	// Drain refuses new networks and drains the existing ones.
	m.Drain()
	if _, err := m.Get("p2"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Get after Drain: err=%v, want ErrDraining", err)
	}
	if _, err := a.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrDraining) {
		t.Fatalf("Route after Multi.Drain: err=%v, want ErrDraining", err)
	}
}

func TestMergeMetricsDerivedRates(t *testing.T) {
	var dst Metrics
	MergeMetrics(&dst, Metrics{
		N: 64, Epoch: 3, Requests: 10,
		CacheEntries: 4, CacheBytes: 64,
		SSDT:        CacheStats{Hits: 3, Misses: 1},
		SlicedLanes: 32, SlicedBlocks: 1,
		BatchLatency: []BatchBucket{{Batch: "1", Count: 2, SumNs: 2000}},
	})
	MergeMetrics(&dst, Metrics{
		N: 64, Epoch: 7, Requests: 5,
		CacheEntries: 4, CacheBytes: 64,
		SSDT:        CacheStats{Hits: 1, Misses: 3},
		SlicedLanes: 32, SlicedBlocks: 1,
		BatchLatency: []BatchBucket{{Batch: "1", Count: 2, SumNs: 6000}},
	})
	if dst.Requests != 15 || dst.Epoch != 7 || dst.N != 64 {
		t.Fatalf("sums wrong: %+v", dst)
	}
	if dst.SSDTHitRate != 0.5 {
		t.Fatalf("merged ssdt hit rate=%v, want 0.5", dst.SSDTHitRate)
	}
	// 128 bytes over 8 cache entries = 128 bits/route.
	if dst.BitsPerRoute != 128 {
		t.Fatalf("merged bits/route=%v, want 128", dst.BitsPerRoute)
	}
	if dst.SlicedFill != 0.5 {
		t.Fatalf("merged sliced fill=%v, want 0.5", dst.SlicedFill)
	}
	if got := dst.BatchLatency[0]; got.Count != 4 || got.AvgUS != 2 {
		t.Fatalf("merged batch band=%+v, want count 4 avg 2us", got)
	}
}

func TestMergeMetricsJSON(t *testing.T) {
	mk := func(requests, h5xx uint64, net string) MetricsJSON {
		return MetricsJSON{
			Service:    Metrics{N: 64, Requests: requests},
			Controller: ControllerJSON{Hits: 2, Misses: 1},
			HTTP5xx:    h5xx,
			Networks:   []NetMetrics{{Net: net, Requests: requests, Replicas: 1}},
		}
	}
	var dst MetricsJSON
	MergeMetricsJSON(&dst, mk(10, 1, "p0"))
	MergeMetricsJSON(&dst, mk(5, 2, "p0"))
	MergeMetricsJSON(&dst, mk(7, 0, "p1"))
	if dst.Service.Requests != 22 || dst.HTTP5xx != 3 {
		t.Fatalf("merged scrape sums wrong: requests=%d 5xx=%d", dst.Service.Requests, dst.HTTP5xx)
	}
	if dst.Controller.Hits != 6 || dst.Controller.Misses != 3 {
		t.Fatalf("merged controller wrong: %+v", dst.Controller)
	}
	if len(dst.Networks) != 2 {
		t.Fatalf("networks=%v, want p0 (merged) and p1", dst.Networks)
	}
	for _, n := range dst.Networks {
		switch n.Net {
		case "p0":
			if n.Requests != 15 || n.Replicas != 2 {
				t.Fatalf("p0 merge=%+v, want requests 15 replicas 2", n)
			}
		case "p1":
			if n.Requests != 7 || n.Replicas != 1 {
				t.Fatalf("p1 merge=%+v", n)
			}
		default:
			t.Fatalf("unexpected net %q", n.Net)
		}
	}
}
