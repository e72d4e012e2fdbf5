// Package routesvc is the serving layer of the reproduction: it turns the
// in-process network controller (Section 5 of the paper) into a concurrent
// routing service that can sit behind a socket and absorb heavy traffic.
//
// The design follows the paper's cost split between the tag schemes:
//
//   - SSDT tags are state-independent — "the destination address is the
//     tag" (Theorem 3.1) — so they are perfectly cacheable: one entry per
//     destination, shared by every source, never invalidated by faults.
//   - TSDT/REROUTE tags (Theorems 3.2–3.4) encode detours around the
//     current blockage map, so every fault or repair report invalidates
//     them. The service stamps each cached tag with the controller's map
//     epoch; a mutation bumps the epoch and every stale entry dies lazily
//     on its next lookup, with no global flush on the mutation path.
//
// Concurrency structure: a sharded RWMutex tag cache absorbs the read
// traffic, a singleflight group collapses thundering herds so each missing
// tag is computed once per epoch, and a drain gate lets the daemon finish
// in-flight requests on shutdown while refusing new ones.
//
// The cost split above also tiers the service under overload: cache hits
// and SSDT requests are the fast path and always flow; fresh TSDT/REROUTE
// computations are the slow path and sit behind a bounded admission queue
// whose threshold a per-round controller adapts from measured
// hit/queue-depth/shed counters (see admission.go). Shed requests fail
// fast with ErrOverload, which HTTP maps to 429 plus Retry-After.
package routesvc

import (
	"errors"
	"fmt"

	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// Scheme selects which of the paper's destination-tag schemes a request
// wants the tag for.
type Scheme uint8

const (
	// SchemeTSDT asks for a two-bit state-based destination tag computed
	// with algorithm REROUTE around the current blockage map.
	SchemeTSDT Scheme = iota
	// SchemeSSDT asks for the state-independent destination tag of
	// Theorem 3.1 (the destination address itself, rendered as a TSDT tag
	// with all state bits zero).
	SchemeSSDT
	numSchemes
)

// String returns the wire name of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeTSDT:
		return "tsdt"
	case SchemeSSDT:
		return "ssdt"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ParseScheme parses a wire scheme name. The empty string means TSDT (the
// general scheme); "reroute" is accepted as an alias for it.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "tsdt", "reroute":
		return SchemeTSDT, nil
	case "ssdt":
		return SchemeSSDT, nil
	}
	return 0, fmt.Errorf("%w: unknown scheme %q", ErrInvalid, s)
}

// Sentinel errors. HTTP maps ErrInvalid to 400, ErrDraining to 503, and
// core.ErrNoPath (wrapped by route results) to 422.
var (
	ErrInvalid  = errors.New("routesvc: invalid request")
	ErrDraining = errors.New("routesvc: draining")
)

// Config parameterizes a Service.
type Config struct {
	// N is the network size (a power of two >= 2).
	N int
	// Shards is the tag-cache shard count, rounded up to a power of two;
	// 0 means 64.
	Shards int
	// Admission configures the slow-path admission controller (see
	// AdmissionConfig); the zero value enables it with defaults.
	Admission AdmissionConfig
	// SlowCost, when positive, stretches every fresh TSDT/REROUTE
	// computation by that duration (inside its admission ticket). It
	// models the slow-path cost of fabrics far larger than a test host
	// can host, giving overload rehearsals (serve-smoke phase 3, the
	// iadmload -overload contract) a deterministic way to saturate the
	// slow path. Leave zero in production.
	SlowCost time.Duration
	// Prewarm builds the dense per-destination SSDT table (n bits/route,
	// one entry per destination, filled through the 64-lane sliced
	// kernels) synchronously at startup, so the very first SSDT request
	// is a cache hit.
	Prewarm bool
	// PrewarmStorm is the fault-storm threshold: after this many epoch
	// bumps accumulate since the last prewarm, the service rebuilds the
	// dense SSDT table asynchronously (the controller-driven prewarm
	// path). 0 means 64; negative disables storm-triggered prewarms.
	PrewarmStorm int
	// SweepEvery is the auto-sweep cadence: every SweepEvery-th epoch
	// bump schedules an asynchronous tagCache.sweep, reclaiming stale
	// TSDT entries without an operator call. 0 means 256; negative
	// disables the cadence (the epoch-stamp alias guard still forces a
	// sweep every aliasSweepInterval bumps — see slotLayout).
	SweepEvery int
}

// aliasSweepInterval forces a cache sweep every 2^16 epoch bumps even
// when the configured cadence is disabled: the flat cache stores epoch
// stamps truncated to >= 17 bits (compact layout), so one full sweep per
// 2^16 bumps guarantees a stale stamp can never alias a live epoch.
const aliasSweepInterval = 1 << 16

// defaultSweepEvery and defaultPrewarmStorm back Config's zero values.
const (
	defaultSweepEvery   = 256
	defaultPrewarmStorm = 64
)

// Request names one tag request of a batch.
type Request struct {
	Src    int
	Dst    int
	Scheme Scheme
}

// Result is the outcome of one tag request.
type Result struct {
	Src, Dst int
	Scheme   Scheme
	// Tag is the routing tag to stamp on the message.
	Tag core.Tag
	// Path is the route the tag selects from Src under all-C states
	// (exact for TSDT; for SSDT the nominal path, since en-route
	// self-repair may divert it around nonstraight faults).
	Path core.Path
	// Epoch is the blockage-map version the tag is valid against. For
	// TSDT it is exact: a fresh computation reports the epoch the
	// controller computed under (read under its lock, so a mutation
	// landing mid-request cannot relabel the tag), and a cache hit
	// reports the entry's stamp, not a possibly newer current epoch. For
	// SSDT it is the epoch observed at request time, since Theorem 3.1
	// makes the tag valid under every map.
	Epoch uint64
	// Cached reports a tag-cache hit; Coalesced reports the request
	// joined another caller's in-flight computation.
	Cached    bool
	Coalesced bool
	// Err is the per-item error of a batch request (nil on success).
	Err error
}

// CacheStats counts one scheme's cache traffic. Coalesced requests are
// counted as hits (they were served without a tag computation) and
// reported separately.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
}

// HitRate returns the fraction of requests served without computing a tag,
// or 0 before any request.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// BatchBucket is one band of the per-batch-size latency histogram: every
// Route call lands in band "1", every RouteBatch call in the band its
// request count falls in, with the whole batch's wall time as one sample.
type BatchBucket struct {
	Batch string  `json:"batch_size"`
	Count uint64  `json:"count"`
	SumNs uint64  `json:"sum_ns"`
	AvgUS float64 `json:"avg_us"`
}

// numBatchBands and the band geometry: powers-of-4-ish splits around the
// 64-lane block size, so the bands separate "singleton", "sub-block",
// "one block" and "multi-block" traffic.
const numBatchBands = 6

var batchBandLabels = [numBatchBands]string{"1", "2-4", "5-16", "17-64", "65-256", "257+"}

func batchBand(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 16:
		return 2
	case n <= 64:
		return 3
	case n <= 256:
		return 4
	}
	return 5
}

// Metrics is a point-in-time snapshot of the service.
type Metrics struct {
	N             int    `json:"n"`
	Epoch         uint64 `json:"epoch"`
	Requests      uint64 `json:"requests_total"`
	Unroutable    uint64 `json:"unroutable_total"`
	Invalid       uint64 `json:"invalid_total"`
	Faults        uint64 `json:"faults_total"`
	Repairs       uint64 `json:"repairs_total"`
	Invalidations uint64 `json:"invalidations_total"`
	CacheEntries  int    `json:"cache_entries"`
	// CacheEntriesLive / CacheEntriesStale split CacheEntries by epoch
	// stamp: stale TSDT entries linger until swept or overwritten, and
	// counting them as cache population would skew hit-rate math after
	// fault churn. CacheEntries = live + stale always.
	CacheEntriesLive  int `json:"entries_live"`
	CacheEntriesStale int `json:"entries_stale"`
	// CacheBytes is the total tag-store footprint (flat cache slabs plus
	// the dense SSDT table); BitsPerRoute is that footprint over every
	// stored route (cache entries + dense table routes).
	CacheBytes   uint64  `json:"cache_bytes"`
	BitsPerRoute float64 `json:"bits_per_route"`
	// DenseRoutes is the number of destinations in the dense SSDT table
	// (0 until a prewarm has run).
	DenseRoutes int `json:"dense_routes"`
	// Sweep / prewarm counters: SweptTotal counts entries reclaimed by
	// all sweeps (automatic and operator-invoked), PrewarmRoutes counts
	// routes bulk-filled by prewarms.
	Sweeps        uint64     `json:"sweeps_total"`
	SweptTotal    uint64     `json:"swept_total"`
	Prewarms      uint64     `json:"prewarms_total"`
	PrewarmRoutes uint64     `json:"prewarm_routes_total"`
	SSDT          CacheStats `json:"ssdt"`
	TSDT          CacheStats `json:"tsdt"`
	SSDTHitRate   float64    `json:"ssdt_hit_rate"`
	TSDTHitRate   float64    `json:"tsdt_hit_rate"`
	// SlicedLanes counts requests whose path was produced by the bit-sliced
	// kernel; SlicedBlocks counts the 64-lane blocks that produced them, so
	// SlicedFill = SlicedLanes / (64 * SlicedBlocks) is the lane utilization.
	SlicedLanes  uint64           `json:"sliced_lanes_utilized"`
	SlicedBlocks uint64           `json:"sliced_blocks_total"`
	SlicedFill   float64          `json:"sliced_lane_fill"`
	Admission    AdmissionMetrics `json:"admission"`
	BatchLatency []BatchBucket    `json:"batch_latency"`
	Controller   controller.Stats `json:"-"`
	Draining     bool             `json:"draining"`
}

// Service wraps a controller with the serving-layer machinery: the sharded
// epoch-stamped tag cache, request coalescing, batch routing, fault
// ingestion and graceful drain. All methods are safe for concurrent use.
type Service struct {
	ctl      *controller.Controller
	p        topology.Params
	cache    *tagCache
	fl       flightGroup
	adm      *admission
	ownAdm   bool
	slowCost time.Duration

	// dense is the per-destination SSDT table (Theorem 3.1: one n-bit
	// entry per destination serves every source under every blockage
	// map). Prewarm builds a complete table and swaps it in whole, so
	// readers see either nothing or all N routes.
	dense        atomic.Pointer[core.SSDTTable]
	prewarmStorm int
	sweepEvery   int
	stormBumps   atomic.Uint64
	sweepBusy    atomic.Bool
	prewarmBusy  atomic.Bool

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	requests      atomic.Uint64
	unroutable    atomic.Uint64
	invalid       atomic.Uint64
	faults        atomic.Uint64
	repairs       atomic.Uint64
	invalidations atomic.Uint64
	hits          [numSchemes]atomic.Uint64
	misses        [numSchemes]atomic.Uint64
	coalesced     [numSchemes]atomic.Uint64
	slicedLanes   atomic.Uint64
	slicedBlocks  atomic.Uint64
	sweeps        atomic.Uint64
	sweptTotal    atomic.Uint64
	prewarms      atomic.Uint64
	prewarmRoutes atomic.Uint64
	batchLat      [numBatchBands]struct{ count, sumNs atomic.Uint64 }

	// testComputeHook, when set (by tests in this package), runs at the
	// start of every tag computation (after the admission ticket is
	// taken); it lets tests hold a flight open to observe coalescing and
	// queue occupancy deterministically. testEpochHook runs right after a
	// TSDT request loads its epoch stamp, so tests can race a map
	// mutation into the window between stamp and lookup or computation.
	// testPrewarmHook runs once per 64-lane block during a dense-table
	// build, so tests can freeze a prewarm mid-build and interleave it
	// with Drain.
	testComputeHook func(Scheme)
	testEpochHook   func()
	testPrewarmHook func(filled int)
}

// New builds a Service for a fault-free network of size cfg.N.
func New(cfg Config) (*Service, error) {
	return newService(cfg, newAdmission(cfg.Admission), true)
}

// newService is New with an injected admission gate: a Multi shares one
// per-process gate across every hosted network (the gate protects the
// process's slow-path compute capacity, which is shared), in which case
// the Service does not own it and must not stop it on Drain.
func newService(cfg Config, adm *admission, ownAdm bool) (*Service, error) {
	ctl, err := controller.New(cfg.N)
	if err != nil {
		return nil, err
	}
	s := &Service{
		ctl:          ctl,
		p:            ctl.Params(),
		cache:        newTagCache(cfg.Shards, ctl.Params()),
		adm:          adm,
		ownAdm:       ownAdm,
		slowCost:     cfg.SlowCost,
		prewarmStorm: cfg.PrewarmStorm,
		sweepEvery:   cfg.SweepEvery,
	}
	if s.prewarmStorm == 0 {
		s.prewarmStorm = defaultPrewarmStorm
	}
	if s.sweepEvery == 0 {
		s.sweepEvery = defaultSweepEvery
	}
	// The hook runs under the controller's write lock, so it must only
	// bump counters and spawn work — never call back into the controller.
	ctl.OnInvalidate(func(epoch uint64) {
		s.invalidations.Add(1)
		if (s.sweepEvery > 0 && epoch%uint64(s.sweepEvery) == 0) || epoch%aliasSweepInterval == 0 {
			s.scheduleSweep()
		}
		if s.prewarmStorm > 0 && s.stormBumps.Add(1) >= uint64(s.prewarmStorm) {
			s.stormBumps.Store(0)
			s.schedulePrewarm()
		}
	})
	if cfg.Prewarm {
		if _, err := s.buildDense(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildDense bulk-fills a fresh dense SSDT table through the 64-lane
// sliced kernels: each block of destinations is loaded as Theorem 3.1
// tags, walked by RouteTSDTSliced, and self-checked (every lane's path
// must land on its own destination) before the table is swapped in. It
// returns the number of routes filled.
func (s *Service) buildDense() (int, error) {
	tbl := core.NewSSDTTable(s.p)
	N := s.p.Size()
	var lb core.LaneBlock
	var srcs [core.Lanes]int
	var tags [core.Lanes]core.Tag
	var paths [core.Lanes]core.PackedPath
	for base := 0; base < N; base += core.Lanes {
		if s.testPrewarmHook != nil {
			s.testPrewarmHook(base)
		}
		k := min(core.Lanes, N-base)
		for i := 0; i < k; i++ {
			d := base + i
			srcs[i] = d
			tags[i] = core.MustTag(s.p, d)
		}
		if err := lb.LoadTags(s.p, srcs[:k], tags[:k]); err != nil {
			return 0, fmt.Errorf("routesvc: prewarm load at destination %d: %w", base, err)
		}
		core.RouteTSDTSliced(s.p, &lb)
		pp := lb.PathsInto(paths[:0])
		for i := 0; i < k; i++ {
			d := base + i
			if got := pp[i].Destination(s.p); got != d {
				return 0, fmt.Errorf("routesvc: prewarm self-check: tag for %d walked to %d", d, got)
			}
			if err := tbl.Store(d, tags[i]); err != nil {
				return 0, fmt.Errorf("routesvc: prewarm store: %w", err)
			}
		}
		s.slicedLanes.Add(uint64(k))
		s.slicedBlocks.Add(1)
	}
	s.dense.Store(tbl)
	s.prewarms.Add(1)
	s.prewarmRoutes.Add(uint64(N))
	return N, nil
}

// Prewarm (re)builds the dense SSDT table synchronously; see Config.
// Prewarm for the startup variant and PrewarmStorm for the automatic one.
func (s *Service) Prewarm() (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	return s.buildDense()
}

// scheduleSweep runs one asynchronous cache sweep, dropping the request
// if a sweep is already running or the service is draining. Drain waits
// for a scheduled sweep through the inflight gate.
func (s *Service) scheduleSweep() {
	if !s.sweepBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.sweepBusy.Store(false)
		if s.begin() != nil {
			return
		}
		defer s.end()
		s.Sweep()
	}()
}

// schedulePrewarm is scheduleSweep for the dense-table rebuild.
func (s *Service) schedulePrewarm() {
	if !s.prewarmBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.prewarmBusy.Store(false)
		if s.begin() != nil {
			return
		}
		defer s.end()
		// The self-check cannot fail against a live controller topology;
		// if it somehow does, the old table stays in place.
		_, _ = s.buildDense()
	}()
}

// Params returns the network parameters.
func (s *Service) Params() topology.Params { return s.p }

// Epoch returns the current blockage-map version.
func (s *Service) Epoch() uint64 { return s.ctl.Epoch() }

// begin gates a request on the drain state: Add under the read lock and
// Wait behind the write lock mean Drain can never start waiting while an
// admission is half-done.
func (s *Service) begin() error {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return ErrDraining
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	return nil
}

func (s *Service) end() { s.inflight.Done() }

// Drain stops admitting requests (they fail with ErrDraining), blocks
// until every in-flight request has finished, and stops the admission
// controller loop (when this Service owns it — a Multi's shared gate is
// stopped once by Multi.Drain). It is idempotent.
func (s *Service) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.inflight.Wait()
	if s.ownAdm {
		s.adm.stop()
	}
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// observeBatch records one whole-batch latency sample in its size band.
func (s *Service) observeBatch(n int, d time.Duration) {
	b := &s.batchLat[batchBand(n)]
	b.count.Add(1)
	b.sumNs.Add(uint64(d.Nanoseconds()))
}

// Route serves one tag request.
func (s *Service) Route(src, dst int, scheme Scheme) (Result, error) {
	if err := s.begin(); err != nil {
		return Result{}, err
	}
	defer s.end()
	t0 := time.Now()
	res, err := s.route(src, dst, scheme)
	s.observeBatch(1, time.Since(t0))
	return res, err
}

// RouteBatch serves a batch in one admission: per-item failures land in
// Result.Err and never fail the batch. The only batch-level error is
// ErrDraining.
//
// Tags resolve per item through the cache/coalescing machinery, but the
// path attachments — the per-request tag walk that dominates a hot-cache
// batch — run through the bit-sliced kernel, 64 requests per block.
func (s *Service) RouteBatch(reqs []Request) ([]Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	// A zero-length batch does no routing work; returning before the
	// latency observation keeps it out of the "1" batch band.
	if len(reqs) == 0 {
		return []Result{}, nil
	}
	t0 := time.Now()
	out := make([]Result, len(reqs))
	for i, r := range reqs {
		res, err := s.resolve(r.Src, r.Dst, r.Scheme)
		if err != nil {
			res = Result{Src: r.Src, Dst: r.Dst, Scheme: r.Scheme, Err: err}
		}
		out[i] = res
	}
	s.fillPathsSliced(out)
	s.observeBatch(len(reqs), time.Since(t0))
	return out, nil
}

// fillPathsSliced attaches the path to every successfully resolved result,
// in 64-lane blocks through RouteTSDTSliced. Both schemes hand out
// core.Tags and Result.Path is defined as the tag's all-C walk, which is
// exactly what the TSDT kernel computes (SSDT tags carry zero state bits),
// so one sliced pass replaces len(out) scalar Follow walks.
func (s *Service) fillPathsSliced(out []Result) {
	var lb core.LaneBlock
	var idx [core.Lanes]int
	var srcs [core.Lanes]int
	var tags [core.Lanes]core.Tag
	var paths [core.Lanes]core.PackedPath
	k := 0
	flush := func() {
		if k == 0 {
			return
		}
		if err := lb.LoadTags(s.p, srcs[:k], tags[:k]); err != nil {
			// Resolved results are pre-validated so this is unreachable, but
			// never drop paths silently — walk the lanes scalar instead.
			for i := 0; i < k; i++ {
				r := &out[idx[i]]
				r.Path = r.Tag.Follow(s.p, r.Src)
			}
			k = 0
			return
		}
		core.RouteTSDTSliced(s.p, &lb)
		pp := lb.PathsInto(paths[:0])
		for i := 0; i < k; i++ {
			out[idx[i]].Path = pp[i].Unpack(s.p)
		}
		s.slicedLanes.Add(uint64(k))
		s.slicedBlocks.Add(1)
		k = 0
	}
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		idx[k], srcs[k], tags[k] = i, out[i].Src, out[i].Tag
		k++
		if k == core.Lanes {
			flush()
		}
	}
	flush()
}

// route is the singleton path: resolve the tag, then walk it scalar (one
// lane would waste the sliced kernel's transposes).
func (s *Service) route(src, dst int, scheme Scheme) (Result, error) {
	res, err := s.resolve(src, dst, scheme)
	if err != nil {
		return res, err
	}
	res.Path = res.Tag.Follow(s.p, src)
	return res, nil
}

// resolve serves one tag request through the cache, coalescing and compute
// machinery, leaving Result.Path unset — the caller decides how to attach
// the path (scalar for singletons, sliced blocks for batches).
func (s *Service) resolve(src, dst int, scheme Scheme) (Result, error) {
	s.requests.Add(1)
	if scheme >= numSchemes {
		s.invalid.Add(1)
		return Result{}, fmt.Errorf("%w: unknown scheme %d", ErrInvalid, scheme)
	}
	if !s.p.ValidSwitch(src) || !s.p.ValidSwitch(dst) {
		s.invalid.Add(1)
		return Result{}, fmt.Errorf("%w: pair (%d, %d) outside 0..%d", ErrInvalid, src, dst, s.p.Size()-1)
	}

	key := cacheKey{src: int32(src), dst: int32(dst), scheme: scheme}
	stamp := ssdtEpoch
	if scheme == SchemeSSDT {
		// Theorem 3.1: the tag depends only on the destination, so every
		// source shares one epoch-exempt entry.
		key.src = 0
	} else {
		// Load the cache stamp BEFORE computing: if a mutation lands
		// mid-compute, the entry is stamped with the old epoch and dies
		// unread — the stale-pointing direction is impossible by
		// construction. The answer itself reports the epoch the
		// controller computed under (see below).
		stamp = s.ctl.Epoch()
		if s.testEpochHook != nil {
			s.testEpochHook()
		}
	}

	// The reported epoch is the one the tag is valid against: the stamp
	// for a TSDT hit (never a newer epoch a concurrent mutation may have
	// produced), the current epoch for epoch-exempt SSDT.
	epoch := stamp
	if scheme == SchemeSSDT {
		epoch = s.ctl.Epoch()
	}
	res := Result{Src: src, Dst: dst, Scheme: scheme, Epoch: epoch}
	if scheme == SchemeSSDT {
		// Dense-table fast path: after a prewarm every destination hits
		// here — no hash, no shard lock, one bit-slab read.
		if tbl := s.dense.Load(); tbl != nil {
			if tag, ok := tbl.Lookup(dst); ok {
				s.hits[scheme].Add(1)
				s.adm.noteHit()
				res.Tag, res.Cached = tag, true
				return res, nil
			}
		}
	}
	if tag, ok := s.cache.get(key, stamp); ok {
		s.hits[scheme].Add(1)
		s.adm.noteHit()
		res.Tag, res.Cached = tag, true
		return res, nil
	}

	tag, computed, err, shared := s.fl.do(flightKey{key: key, epoch: stamp}, func() (core.Tag, uint64, error) {
		// The admission gate guards the slow path only: fresh
		// TSDT/REROUTE computations against the current blockage map.
		// SSDT computes are state-independent one-shot renders (fast
		// path by construction), and cache hits never reach here.
		if scheme == SchemeTSDT {
			if !s.adm.acquire() {
				return core.Tag{}, 0, ErrOverload
			}
			defer s.adm.release()
		}
		if s.testComputeHook != nil {
			s.testComputeHook(scheme)
		}
		if s.slowCost > 0 && scheme == SchemeTSDT {
			time.Sleep(s.slowCost)
		}
		tag, computed, err := s.compute(src, dst, scheme)
		if err == nil {
			s.cache.put(key, tag, stamp)
		}
		return tag, computed, err
	})
	if errors.Is(err, ErrOverload) {
		// A shed flight computed nothing: it is neither a hit nor a
		// miss, and every caller that shared it was refused too.
		s.adm.noteShed()
		return Result{}, err
	}
	if shared {
		s.hits[scheme].Add(1)
		s.coalesced[scheme].Add(1)
		s.adm.noteHit()
	} else {
		s.misses[scheme].Add(1)
	}
	if err != nil {
		if errors.Is(err, core.ErrNoPath) {
			s.unroutable.Add(1)
		} else {
			s.invalid.Add(1)
		}
		return Result{}, err
	}
	res.Tag, res.Coalesced = tag, shared
	if scheme == SchemeTSDT {
		// A fresh tag is valid under the map it was computed against,
		// which a mutation racing this request may have made newer than
		// the stamp.
		res.Epoch = computed
	}
	return res, nil
}

// compute renders a tag and reports the epoch it is valid under: the
// controller's computing epoch for TSDT, the current one for SSDT.
func (s *Service) compute(src, dst int, scheme Scheme) (core.Tag, uint64, error) {
	if scheme == SchemeSSDT {
		tag, err := core.NewTag(s.p, dst)
		return tag, s.ctl.Epoch(), err
	}
	return s.ctl.RouteTagEpoch(src, dst)
}

func (s *Service) validLink(l topology.Link) error {
	if !s.p.ValidStage(l.Stage) || !s.p.ValidSwitch(l.From) ||
		(l.Kind != topology.Minus && l.Kind != topology.Straight && l.Kind != topology.Plus) {
		return fmt.Errorf("%w: link %v", ErrInvalid, l)
	}
	return nil
}

// ReportFault ingests one link-fault report. It returns whether the
// blockage map changed (duplicate reports are no-ops).
func (s *Service) ReportFault(l topology.Link) (bool, error) {
	if err := s.begin(); err != nil {
		return false, err
	}
	defer s.end()
	if err := s.validLink(l); err != nil {
		return false, err
	}
	s.faults.Add(1)
	return s.ctl.ReportFault(l), nil
}

// ReportRepair ingests one link-repair report.
func (s *Service) ReportRepair(l topology.Link) (bool, error) {
	if err := s.begin(); err != nil {
		return false, err
	}
	defer s.end()
	if err := s.validLink(l); err != nil {
		return false, err
	}
	s.repairs.Add(1)
	return s.ctl.ReportRepair(l), nil
}

// ReportSwitchFault ingests a switch-fault report via the paper's
// input-link transformation. It returns how many of the switch's input
// links it actually blocked (inputs already blocked by earlier reports are
// no-ops), so callers can report the exact map change without inferring it
// from racy before/after snapshots.
func (s *Service) ReportSwitchFault(sw topology.Switch) (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	s.faults.Add(1)
	blocked, err := s.ctl.ReportSwitchFault(sw)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return blocked, nil
}

// ApplyFaults ingests a batch of fault reports atomically with respect to
// validation: every link and switch spec is validated before any is
// applied, so a malformed report mid-batch leaves the blockage map
// untouched. It returns the number of links newly blocked (switch reports
// contribute the count of input links they actually blocked).
func (s *Service) ApplyFaults(links []topology.Link, switches []topology.Switch) (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	for _, l := range links {
		if err := s.validLink(l); err != nil {
			return 0, err
		}
	}
	for _, sw := range switches {
		if err := s.ctl.ValidateSwitchFault(sw); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	changed := 0
	for _, l := range links {
		s.faults.Add(1)
		if s.ctl.ReportFault(l) {
			changed++
		}
	}
	for _, sw := range switches {
		s.faults.Add(1)
		blocked, err := s.ctl.ReportSwitchFault(sw)
		if err != nil {
			// Unreachable after validation above, but never swallow it.
			return changed, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		changed += blocked
	}
	return changed, nil
}

// ApplyRepairs is ApplyFaults for repair reports: all specs validated
// before any is applied. It returns the number of links newly unblocked.
func (s *Service) ApplyRepairs(links []topology.Link) (int, error) {
	if err := s.begin(); err != nil {
		return 0, err
	}
	defer s.end()
	for _, l := range links {
		if err := s.validLink(l); err != nil {
			return 0, err
		}
	}
	changed := 0
	for _, l := range links {
		s.repairs.Add(1)
		if s.ctl.ReportRepair(l) {
			changed++
		}
	}
	return changed, nil
}

// Faults returns a snapshot of the blocked links.
func (s *Service) Faults() []topology.Link { return s.ctl.Faults() }

// RetryAfter returns the overload backoff hint, in seconds, that the HTTP
// layer attaches to 429 responses: long enough for the admission
// controller to run a couple of rounds and adapt its threshold.
func (s *Service) RetryAfter() int { return s.adm.retryAfter() }

// Sweep reclaims stale TSDT cache entries (see tagCache.sweep); it returns
// how many entries it removed. The service also sweeps automatically every
// Config.SweepEvery epoch bumps, so serving neither requires an operator
// call for memory nor (via the alias guard) for stamp-truncation safety.
func (s *Service) Sweep() int {
	removed := s.cache.sweep(s.ctl.Epoch())
	s.sweeps.Add(1)
	s.sweptTotal.Add(uint64(removed))
	return removed
}

// Metrics snapshots the service counters. The cache population split and
// the slab footprint come from one consistent per-shard pass
// (tagCache.snapshot): counting entries and summing bytes in two separate
// lock passes let a concurrent sweep rebuild shards in between, so a
// scrape could pair a pre-sweep entry count with a post-sweep footprint
// and report an impossible bits-per-route figure.
func (s *Service) Metrics() Metrics {
	live, stale, cacheBytes := s.cache.snapshot(s.ctl.Epoch())
	denseRoutes := 0
	if tbl := s.dense.Load(); tbl != nil {
		denseRoutes = tbl.Len()
		cacheBytes += tbl.MemoryBytes()
	}
	m := Metrics{
		N:                 s.p.Size(),
		Epoch:             s.ctl.Epoch(),
		Requests:          s.requests.Load(),
		Unroutable:        s.unroutable.Load(),
		Invalid:           s.invalid.Load(),
		Faults:            s.faults.Load(),
		Repairs:           s.repairs.Load(),
		Invalidations:     s.invalidations.Load(),
		CacheEntries:      live + stale,
		CacheEntriesLive:  live,
		CacheEntriesStale: stale,
		CacheBytes:        cacheBytes,
		DenseRoutes:       denseRoutes,
		Sweeps:            s.sweeps.Load(),
		SweptTotal:        s.sweptTotal.Load(),
		Prewarms:          s.prewarms.Load(),
		PrewarmRoutes:     s.prewarmRoutes.Load(),
		SSDT: CacheStats{
			Hits:      s.hits[SchemeSSDT].Load(),
			Misses:    s.misses[SchemeSSDT].Load(),
			Coalesced: s.coalesced[SchemeSSDT].Load(),
		},
		TSDT: CacheStats{
			Hits:      s.hits[SchemeTSDT].Load(),
			Misses:    s.misses[SchemeTSDT].Load(),
			Coalesced: s.coalesced[SchemeTSDT].Load(),
		},
		SlicedLanes:  s.slicedLanes.Load(),
		SlicedBlocks: s.slicedBlocks.Load(),
		Admission:    s.adm.metrics(),
		Controller:   s.ctl.Stats(),
		Draining:     s.Draining(),
	}
	m.SSDTHitRate = m.SSDT.HitRate()
	m.TSDTHitRate = m.TSDT.HitRate()
	if routes := m.CacheEntries + m.DenseRoutes; routes > 0 {
		m.BitsPerRoute = float64(m.CacheBytes*8) / float64(routes)
	}
	if m.SlicedBlocks > 0 {
		m.SlicedFill = float64(m.SlicedLanes) / float64(m.SlicedBlocks*core.Lanes)
	}
	m.BatchLatency = make([]BatchBucket, 0, numBatchBands)
	for i := range s.batchLat {
		c, sum := s.batchLat[i].count.Load(), s.batchLat[i].sumNs.Load()
		bb := BatchBucket{Batch: batchBandLabels[i], Count: c, SumNs: sum}
		if c > 0 {
			bb.AvgUS = float64(sum) / float64(c) / 1e3
		}
		m.BatchLatency = append(m.BatchLatency, bb)
	}
	return m
}
