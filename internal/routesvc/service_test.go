package routesvc

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

func mustService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drain waits out any request a test left in flight.
	t.Cleanup(s.Drain)
	return s
}

func TestRouteBothSchemes(t *testing.T) {
	s := mustService(t, Config{N: 8})
	computed := func() uint64 { return s.Metrics().Controller.Misses }
	for _, scheme := range []Scheme{SchemeTSDT, SchemeSSDT} {
		before := computed()
		res, err := s.Route(1, 6, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Tag.Destination() != 6 {
			t.Errorf("%v tag destination = %d", scheme, res.Tag.Destination())
		}
		if res.Path.Destination() != 6 || res.Path.Source != 1 {
			t.Errorf("%v path %v", scheme, res.Path)
		}
		// TSDT recomputes every request (the service stores no tags) and
		// gets the same tag back; an SSDT tag is the destination address,
		// so SSDT never computes.
		res2, err := s.Route(1, 6, scheme)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(2)
		if scheme == SchemeSSDT {
			want = 0
		}
		if got := computed() - before; got != want || res2.Tag != res.Tag {
			t.Errorf("%v: %d computations for two requests (want %d), tags %v then %v", scheme, got, want, res.Tag, res2.Tag)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	s := mustService(t, Config{N: 8})
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {8, 0}, {0, 8}} {
		if _, err := s.Route(pair[0], pair[1], SchemeTSDT); !errors.Is(err, ErrInvalid) {
			t.Errorf("Route(%d, %d) err = %v, want ErrInvalid", pair[0], pair[1], err)
		}
	}
	if _, err := s.Route(0, 1, Scheme(9)); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad scheme err = %v", err)
	}
	m := s.Metrics()
	if m.Invalid != 5 || m.Requests != 5 {
		t.Errorf("invalid=%d requests=%d, want 5/5", m.Invalid, m.Requests)
	}
}

// TestNoStaleTagAcrossFault is the acceptance check for epoch
// invalidation: once a fault (or repair) report has returned, no
// subsequently served TSDT tag may route through a link blocked at request
// time. Sequential churn makes "at request time" exact.
func TestNoStaleTagAcrossFault(t *testing.T) {
	s := mustService(t, Config{N: 16})
	rng := rand.New(rand.NewSource(7))
	p := s.Params()

	var blocked []topology.Link
	verify := func() {
		for q := 0; q < 20; q++ {
			src, dst := rng.Intn(16), rng.Intn(16)
			res, err := s.Route(src, dst, SchemeTSDT)
			if err != nil {
				if errors.Is(err, core.ErrNoPath) {
					continue // pair genuinely disconnected right now
				}
				t.Fatalf("Route(%d, %d): %v", src, dst, err)
			}
			for _, l := range res.Path.Links {
				for _, b := range blocked {
					if l == b {
						t.Fatalf("stale tag: path %v uses link %v blocked before the request (epoch %d)",
							res.Path, b, res.Epoch)
					}
				}
			}
		}
	}

	verify()
	for round := 0; round < 40; round++ {
		if len(blocked) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(blocked))
			if _, err := s.ReportRepair(blocked[i]); err != nil {
				t.Fatal(err)
			}
			blocked = append(blocked[:i], blocked[i+1:]...)
		} else {
			l := topology.Link{
				Stage: rng.Intn(p.Stages()),
				From:  rng.Intn(p.Size()),
				Kind:  topology.LinkKind(rng.Intn(3)),
			}
			if _, err := s.ReportFault(l); err != nil {
				t.Fatal(err)
			}
			already := false
			for _, b := range blocked {
				if b == l {
					already = true
				}
			}
			if !already {
				blocked = append(blocked, l)
			}
		}
		verify()
	}
}

// TestSSDTEpochExempt checks Theorem 3.1's serving consequence: an SSDT
// answer needs no computation from any source and across every
// fault/repair, while TSDT tags are computed against the current map.
func TestSSDTEpochExempt(t *testing.T) {
	s := mustService(t, Config{N: 8})
	r1, err := s.Route(1, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	// Same destination from a different source: same tag, own path.
	r2, err := s.Route(2, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Tag != r1.Tag {
		t.Errorf("SSDT tags differ across sources: %v vs %v", r1.Tag, r2.Tag)
	}
	if r2.Path.Source != 2 || r2.Path.Destination() != 5 {
		t.Errorf("SSDT path for source 2: %v", r2.Path)
	}

	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 1, Kind: topology.Plus}); err != nil {
		t.Fatal(err)
	}
	r3, err := s.Route(1, 5, SchemeSSDT)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Tag != r1.Tag || r3.Epoch != s.Epoch() {
		t.Errorf("SSDT answer after a fault: %+v, want tag %v at epoch %d", r3, r1.Tag, s.Epoch())
	}
	if m := s.Metrics(); m.Controller.Misses != 0 {
		t.Errorf("SSDT answers computed %d tags", m.Controller.Misses)
	}

	// The TSDT tag for the same pair is NOT exempt.
	if _, err := s.Route(1, 5, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFault(topology.Link{Stage: 1, From: 3, Kind: topology.Minus}); err != nil {
		t.Fatal(err)
	}
	r5, err := s.Route(1, 5, SchemeTSDT)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Epoch != 2 || s.Metrics().Controller.Misses != 2 {
		t.Errorf("TSDT answer %+v across an epoch bump, want a computation at epoch 2", r5)
	}
	m := s.Metrics()
	if m.Invalidations != 2 || m.Epoch != 2 {
		t.Errorf("invalidations=%d epoch=%d, want 2/2", m.Invalidations, m.Epoch)
	}
}

// TestCoalescing pins that TSDT requests no longer coalesce: concurrent
// requests for one pair are independent computations under the
// controller's read lock. All G requests are inside the compute hook at
// once — none waits on another's computation — and all return the same
// tag, one miss each.
func TestCoalescing(t *testing.T) {
	s := mustService(t, Config{N: 32})
	const G = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, G)
	s.testComputeHook = func(Scheme) {
		entered <- struct{}{}
		<-gate
	}

	var wg sync.WaitGroup
	results := make([]Result, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := s.Route(3, 17, SchemeTSDT)
			if err != nil {
				t.Errorf("Route: %v", err)
			}
			results[g] = res
		}(g)
	}
	for g := 0; g < G; g++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(gate)
			wg.Wait()
			t.Fatalf("only %d of %d computations in flight at once", g, G)
		}
	}
	close(gate)
	wg.Wait()

	m := s.Metrics()
	if m.TSDT.Misses != G || m.TSDT.Hits != 0 || m.TSDT.Coalesced != 0 {
		t.Errorf("tsdt stats %+v, want %d misses and no hits or joins", m.TSDT, G)
	}
	for g := 0; g < G; g++ {
		if results[g].Tag != results[0].Tag {
			t.Errorf("request %d: %+v, want request 0's tag %v, computed", g, results[g], results[0].Tag)
		}
	}
}

// TestDrain checks the graceful-drain contract: in-flight requests finish,
// new requests are refused, and Drain returns only after the last
// in-flight request completed.
func TestDrain(t *testing.T) {
	s := mustService(t, Config{N: 8})
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s.testComputeHook = func(Scheme) {
		once.Do(func() {
			close(entered)
			<-gate
		})
	}

	slowDone := make(chan Result, 1)
	go func() {
		res, err := s.Route(2, 7, SchemeTSDT)
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
		}
		slowDone <- res
	}()
	<-entered

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Drain must be waiting on the in-flight request, and refusing new
	// admissions meanwhile.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Route(0, 1, SchemeTSDT); !errors.Is(err, ErrDraining) {
		t.Fatalf("route during drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.RouteBatch([]Request{{Src: 0, Dst: 1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("batch during drain: err = %v, want ErrDraining", err)
	}
	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 0, Kind: topology.Plus}); !errors.Is(err, ErrDraining) {
		t.Fatalf("fault during drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	res := <-slowDone
	if res.Tag.Destination() != 7 {
		t.Errorf("drained request result: %+v", res)
	}
	select {
	case <-drained:
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after in-flight request finished")
	}
	s.Drain() // idempotent
	if !s.Metrics().Draining {
		t.Error("metrics do not report draining")
	}
}

func TestRouteBatch(t *testing.T) {
	s := mustService(t, Config{N: 8})
	// Disconnect pair (5,5): a straight-link fault on an all-straight path
	// cannot be bypassed (Theorems 3.3/3.4).
	if _, err := s.ReportFault(topology.Link{Stage: 1, From: 5, Kind: topology.Straight}); err != nil {
		t.Fatal(err)
	}
	results, err := s.RouteBatch([]Request{
		{Src: 1, Dst: 6, Scheme: SchemeTSDT},
		{Src: 1, Dst: 6, Scheme: SchemeTSDT},  // same key: same tag, computed again
		{Src: 5, Dst: 5, Scheme: SchemeTSDT},  // unroutable
		{Src: 0, Dst: 99, Scheme: SchemeSSDT}, // invalid
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("routable items failed: %v / %v", results[0].Err, results[1].Err)
	}
	if results[1].Tag != results[0].Tag {
		t.Errorf("duplicate batch item tag %v, want %v", results[1].Tag, results[0].Tag)
	}
	if !errors.Is(results[2].Err, core.ErrNoPath) {
		t.Errorf("unroutable item err = %v", results[2].Err)
	}
	if !errors.Is(results[3].Err, ErrInvalid) {
		t.Errorf("invalid item err = %v", results[3].Err)
	}
	m := s.Metrics()
	if m.Unroutable != 1 {
		t.Errorf("unroutable = %d", m.Unroutable)
	}

	// The paths share one link arena: appending to item i's links leaves
	// item i+1's unchanged, and every path is the tag's scalar walk.
	results, err = s.RouteBatch([]Request{
		{Src: 1, Dst: 6, Scheme: SchemeTSDT},
		{Src: 2, Dst: 3, Scheme: SchemeSSDT},
		{Src: 0, Dst: 99, Scheme: SchemeSSDT}, // invalid: no path
		{Src: 7, Dst: 0, Scheme: SchemeTSDT},
		{Src: 4, Dst: 4, Scheme: SchemeSSDT},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil && !r.Path.Equal(r.Tag.Follow(s.Params(), r.Src)) {
			t.Fatalf("item %d path %v, scalar walk %v", i, r.Path, r.Tag.Follow(s.Params(), r.Src))
		}
	}
	for i := 0; i+1 < len(results); i++ {
		next := slices.Clone(results[i+1].Path.Links)
		results[i].Path.Links = append(results[i].Path.Links, topology.Link{Stage: 9, From: 9})
		if !slices.Equal(results[i+1].Path.Links, next) {
			t.Fatalf("appending to item %d's links changed item %d's: %v, was %v", i, i+1, results[i+1].Path.Links, next)
		}
	}
}

// TestConcurrentChurn races routers against fault churn under the race
// detector and then checks counter conservation.
func TestConcurrentChurn(t *testing.T) {
	s := mustService(t, Config{N: 32})
	const G, R = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			l := topology.Link{Stage: g % 5, From: g, Kind: topology.Plus}
			for r := 0; r < R; r++ {
				scheme := SchemeTSDT
				if r%2 == 0 {
					scheme = SchemeSSDT
				}
				if _, err := s.Route(rng.Intn(32), rng.Intn(32), scheme); err != nil && !errors.Is(err, core.ErrNoPath) {
					t.Errorf("route: %v", err)
					return
				}
				switch r % 50 {
				case 10:
					s.ReportFault(l)
				case 30:
					s.ReportRepair(l)
				}
			}
		}(g)
	}
	wg.Wait()
	m := s.Metrics()
	// Every valid request is exactly one hit or one miss (unroutable ones
	// still count as the miss that computed the failure).
	total := m.SSDT.Hits + m.SSDT.Misses + m.TSDT.Hits + m.TSDT.Misses
	if total != G*R {
		t.Errorf("hits+misses = %d, want %d", total, G*R)
	}
	if m.SSDT.Misses != 0 || m.SSDT.Coalesced != 0 {
		t.Errorf("SSDT stats under churn %+v, want no misses or joins (the tag is the address)", m.SSDT)
	}
}

// TestSlicedBatchMetrics pins the sliced-fill accounting: lanes count
// successfully resolved batch items, blocks count 64-lane flushes, and the
// latency histogram lands each call in its size band.
func TestSlicedBatchMetrics(t *testing.T) {
	s := mustService(t, Config{N: 64})
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 3, 64, 65, 300} {
		reqs := make([]Request, size)
		for i := range reqs {
			reqs[i] = Request{Src: rng.Intn(64), Dst: rng.Intn(64), Scheme: SchemeSSDT}
		}
		results, err := s.RouteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("size %d item %d: %v", size, i, res.Err)
			}
			// The sliced fill must agree with the scalar tag walk.
			if want := res.Tag.Follow(s.Params(), res.Src); res.Path.String() != want.String() {
				t.Fatalf("size %d item %d: sliced path %v, scalar %v", size, i, res.Path, want)
			}
		}
	}
	m := s.Metrics()
	if want := uint64(1 + 3 + 64 + 65 + 300); m.SlicedLanes != want {
		t.Errorf("SlicedLanes = %d, want %d", m.SlicedLanes, want)
	}
	// Blocks per batch: 1, 1, 1, 2 (64+1) and 5 (4x64+44).
	if want := uint64(1 + 1 + 1 + 2 + 5); m.SlicedBlocks != want {
		t.Errorf("SlicedBlocks = %d, want %d", m.SlicedBlocks, want)
	}
	if want := 433.0 / 640.0; m.SlicedFill != want {
		t.Errorf("SlicedFill = %v, want %v", m.SlicedFill, want)
	}
	if len(m.BatchLatency) != numBatchBands {
		t.Fatalf("BatchLatency has %d bands, want %d", len(m.BatchLatency), numBatchBands)
	}
	wantCounts := map[string]uint64{"1": 1, "2-4": 1, "5-16": 0, "17-64": 1, "65-256": 1, "257+": 1}
	for _, b := range m.BatchLatency {
		if b.Count != wantCounts[b.Batch] {
			t.Errorf("band %q count = %d, want %d", b.Batch, b.Count, wantCounts[b.Batch])
		}
		if b.Count > 0 && b.SumNs == 0 {
			t.Errorf("band %q has %d samples but zero summed latency", b.Batch, b.Count)
		}
	}
	// Singleton Route calls land in band "1" too.
	if _, err := s.Route(1, 2, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Metrics().BatchLatency {
		if b.Batch == "1" && b.Count != 2 {
			t.Errorf("band 1 count after Route = %d, want 2", b.Count)
		}
	}
	if got := s.Metrics().SlicedLanes; got != 433 {
		t.Errorf("Route must not touch the sliced counters, SlicedLanes = %d", got)
	}
}

// TestTSDTBatchAllocs: a TSDT computation touches no heap, so a 64-item
// batch of pairs never requested before, on a faulted net, allocates only
// its results and their shared link array (3 under -race). Minus-only
// faults keep every walk on the flip path (no straight or
// double-nonstraight blockage, so no BACKTRACK).
func TestTSDTBatchAllocs(t *testing.T) {
	const budget = 3
	s := mustService(t, Config{N: 1024})
	p := s.Params()
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 400; k++ {
		if _, err := s.ReportFault(topology.Link{Stage: rng.Intn(p.Stages()), From: rng.Intn(p.Size()), Kind: topology.Minus}); err != nil {
			t.Fatal(err)
		}
	}
	// One batch per AllocsPerRun call (its warm-up included), no pair
	// repeated across them.
	const runs = 50
	seen := make(map[[2]int]bool)
	batches := make([][]Request, runs+1)
	for b := range batches {
		batches[b] = make([]Request, 64)
		for i := range batches[b] {
			pr := [2]int{rng.Intn(p.Size()), rng.Intn(p.Size())}
			for seen[pr] {
				pr = [2]int{rng.Intn(p.Size()), rng.Intn(p.Size())}
			}
			seen[pr] = true
			batches[b][i] = Request{Src: pr[0], Dst: pr[1], Scheme: SchemeTSDT}
		}
	}
	flipped, next := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		out, err := s.RouteBatch(batches[next])
		next++
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range out {
			if res.Err != nil {
				t.Fatalf("item %d: %v", i, res.Err)
			}
			if res.Tag.StateBits() != 0 {
				flipped++
			}
		}
	})
	if flipped == 0 {
		t.Fatal("no item needed a flip; the faults miss every path")
	}
	if allocs > budget {
		t.Fatalf("64-item TSDT batch: %.1f allocations, budget %d (results + links)", allocs, budget)
	}
}
