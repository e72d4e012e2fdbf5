// Package routesvc is the serving layer of the reproduction: it turns the
// in-process network controller (Section 5 of the paper) into a concurrent
// routing service that can sit behind a socket and absorb heavy traffic.
//
// The design follows the paper's cost split between the tag schemes:
//
//   - SSDT tags are state-independent — "the destination address is the
//     tag" (Theorem 3.1) — so serving one needs no state at all: the
//     service validates the pair and renders the n-bit address, with no
//     computation and no admission ticket.
//   - TSDT/REROUTE tags (Theorems 3.2–3.4) encode detours around the
//     current blockage map, so they are recomputed on every request and
//     never stored: from the all-C tag, one state-bit flip per
//     single-nonstraight blockage the walk meets (Corollary 4.1), with
//     BACKTRACK only at a straight or double-nonstraight blockage. The
//     controller runs that n-stage walk under its read lock and reports
//     the epoch read under the same lock, so concurrent computations
//     never serialize, a fault or repair needs no invalidation, and every
//     answer names exactly the map it was computed against.
//
// The only per-network state is the controller's blockage map; a drain
// gate lets the daemon finish in-flight requests on shutdown while
// refusing new ones.
//
// The cost split above also tiers the service under overload: SSDT
// requests are the fast path and always flow; TSDT/REROUTE computations
// are the slow path and sit behind a fixed bound on concurrent computes
// (see admission.go). Shed requests fail fast with ErrOverload, which
// HTTP maps to 429 plus Retry-After.
package routesvc

import (
	"errors"
	"fmt"
	"slices"
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
	// Admission configures the slow-path admission gate (see
	// AdmissionConfig); the zero value enables it with defaults.
	Admission AdmissionConfig
	// SlowCost, when positive, stretches every TSDT/REROUTE computation
	// by that duration (inside its admission ticket). It models the
	// slow-path cost of fabrics far larger than a test host can host,
	// giving overload rehearsals (serve-smoke phase 3, the iadmload
	// -overload contract) a deterministic way to saturate the slow path.
	// Leave zero in production.
	SlowCost time.Duration
}

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
	// TSDT it is exact: the epoch the controller computed under, read
	// under its lock, so a mutation landing mid-request cannot relabel
	// the tag. For SSDT it is the epoch observed at request time, since
	// Theorem 3.1 makes the tag valid under every map.
	Epoch uint64
	// Err is the per-item error of a batch request (nil on success).
	Err error
}

// SchemeStats counts one scheme's answers: Hits are answers rendered
// without a tag computation, Misses are REROUTE computations. Every SSDT
// answer is a hit and every TSDT answer a miss, so SSDT.Misses and
// TSDT.Hits read 0, and so does Coalesced for both. The field names are
// the ones benchmark readers compile against.
type SchemeStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
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
	N          int    `json:"n"`
	Epoch      uint64 `json:"epoch"`
	Requests   uint64 `json:"requests_total"`
	Unroutable uint64 `json:"unroutable_total"`
	Invalid    uint64 `json:"invalid_total"`
	Faults     uint64 `json:"faults_total"`
	Repairs    uint64 `json:"repairs_total"`
	// Invalidations counts blockage-map changes; it equals Epoch.
	Invalidations uint64 `json:"invalidations_total"`
	// CacheEntriesLive and CacheEntriesStale read 0: the service stores
	// no tags. They stay for the benchmark readers that compile against
	// them.
	CacheEntriesLive  int         `json:"entries_live"`
	CacheEntriesStale int         `json:"entries_stale"`
	SSDT              SchemeStats `json:"ssdt"`
	TSDT              SchemeStats `json:"tsdt"`
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

// Service wraps a controller with the serving-layer machinery: admission
// control, batch routing, fault ingestion and graceful drain. All methods
// are safe for concurrent use.
type Service struct {
	ctl      *controller.Controller
	p        topology.Params
	adm      *admission
	slowCost time.Duration

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	requests     atomic.Uint64
	unroutable   atomic.Uint64
	invalid      atomic.Uint64
	faults       atomic.Uint64
	repairs      atomic.Uint64
	ssdtHits     atomic.Uint64
	tsdtMisses   atomic.Uint64
	slicedLanes  atomic.Uint64
	slicedBlocks atomic.Uint64
	batchLat     [numBatchBands]struct{ count, sumNs atomic.Uint64 }

	// testComputeHook, when set (by tests in this package), runs at the
	// start of every TSDT computation, after the admission ticket is taken
	// and before the controller's read lock; it lets tests hold
	// computations open to observe concurrency and queue occupancy, or
	// race a map mutation into the computation, deterministically.
	testComputeHook func(Scheme)
}

// New builds a Service for a fault-free network of size cfg.N.
func New(cfg Config) (*Service, error) {
	return newService(cfg, newAdmission(cfg.Admission))
}

// newService is New with an injected admission gate: a Multi shares one
// per-process gate across every hosted network (the gate protects the
// process's slow-path compute capacity, which is shared).
func newService(cfg Config, adm *admission) (*Service, error) {
	ctl, err := controller.New(cfg.N)
	if err != nil {
		return nil, err
	}
	return &Service{
		ctl:      ctl,
		p:        ctl.Params(),
		adm:      adm,
		slowCost: cfg.SlowCost,
	}, nil
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

// Drain stops admitting requests (they fail with ErrDraining) and blocks
// until every in-flight request has finished. It is idempotent.
func (s *Service) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.inflight.Wait()
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
// Tags resolve per item exactly as Route resolves them, but the path
// attachments — the per-request tag walk — run through the bit-sliced
// kernel, 64 requests per block.
//
// Memory is per batch, not per item: the paths' links share one backing
// array, each Result's Path.Links a sub-slice capped at its own length
// (appending to one never touches the next). The results own that array.
func (s *Service) RouteBatch(reqs []Request) ([]Result, error) {
	out := make([]Result, len(reqs))
	if err := s.resolveBatch(reqs, out); err != nil {
		return nil, err
	}
	s.fillPathsSliced(out, nil)
	return out, nil
}

// resolveBatch resolves the tag of every request into the caller's
// out[:len(reqs)] under one drain-gate admission, leaving the paths
// unset: RouteBatch and full-shape /route/batch answers attach them with
// fillPathsSliced, tag-shape answers never need them.
func (s *Service) resolveBatch(reqs []Request, out []Result) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	// A zero-length batch does no routing work; returning before the
	// latency observation keeps it out of the "1" batch band.
	if len(reqs) == 0 {
		return nil
	}
	t0 := time.Now()
	for i, r := range reqs {
		res, err := s.resolve(r.Src, r.Dst, r.Scheme)
		if err != nil {
			res = Result{Src: r.Src, Dst: r.Dst, Scheme: r.Scheme, Err: err}
		}
		out[i] = res
	}
	s.observeBatch(len(reqs), time.Since(t0))
	return nil
}

// fillPathsSliced attaches the path to every successfully resolved result,
// in 64-lane blocks through RouteTSDTSliced, unpacking the links into
// links (see RouteBatch; nil: one exact-size allocation) and returning it
// extended. Both schemes hand out core.Tags and Result.Path is defined as
// the tag's all-C walk, which is exactly what the TSDT kernel computes
// (SSDT tags carry zero state bits), so one sliced pass replaces len(out)
// scalar Follow walks.
func (s *Service) fillPathsSliced(out []Result, links []topology.Link) []topology.Link {
	ok := 0
	for i := range out {
		if out[i].Err == nil {
			ok++
		}
	}
	links = slices.Grow(links, ok*s.p.Stages())
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
			out[idx[i]].Path = pp[i].Unpack(s.p, &links)
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
	return links
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

// resolve serves one tag request, leaving Result.Path unset — the caller
// decides how to attach the path (scalar for singletons, sliced blocks for
// batches).
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

	if scheme == SchemeSSDT {
		// Theorem 3.1: the tag is the destination address, valid under
		// every blockage map, so it is rendered in place — no admission
		// ticket — and answered at the current epoch.
		tag, err := core.NewTag(s.p, dst)
		if err != nil {
			s.invalid.Add(1)
			return Result{}, err
		}
		s.ssdtHits.Add(1)
		return Result{Src: src, Dst: dst, Scheme: scheme, Tag: tag, Epoch: s.ctl.Epoch()}, nil
	}

	tag, epoch, err := s.computeTSDT(src, dst)
	if errors.Is(err, ErrOverload) {
		// A shed request computed nothing: it is neither a hit nor a miss.
		s.adm.noteShed()
		return Result{}, err
	}
	s.tsdtMisses.Add(1)
	if err != nil {
		if errors.Is(err, core.ErrNoPath) {
			s.unroutable.Add(1)
		} else {
			s.invalid.Add(1)
		}
		return Result{}, err
	}
	return Result{Src: src, Dst: dst, Scheme: scheme, Tag: tag, Epoch: epoch}, nil
}

// computeTSDT is the slow path: one REROUTE computation against the
// current blockage map, inside an admission ticket, reporting the epoch
// the controller computed under.
func (s *Service) computeTSDT(src, dst int) (core.Tag, uint64, error) {
	if !s.adm.acquire() {
		return core.Tag{}, 0, ErrOverload
	}
	defer s.adm.release()
	if s.testComputeHook != nil {
		s.testComputeHook(SchemeTSDT)
	}
	if s.slowCost > 0 {
		time.Sleep(s.slowCost)
	}
	return s.ctl.ComputeTag(src, dst)
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

// MapStats returns the controller's snapshot: epoch and blocked-link
// count read together under its lock, in O(1).
func (s *Service) MapStats() controller.Stats { return s.ctl.Stats() }

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	epoch := s.ctl.Epoch()
	m := Metrics{
		N:             s.p.Size(),
		Epoch:         epoch,
		Requests:      s.requests.Load(),
		Unroutable:    s.unroutable.Load(),
		Invalid:       s.invalid.Load(),
		Faults:        s.faults.Load(),
		Repairs:       s.repairs.Load(),
		Invalidations: epoch,
		SSDT:          SchemeStats{Hits: s.ssdtHits.Load()},
		TSDT:          SchemeStats{Misses: s.tsdtMisses.Load()},
		SlicedLanes:   s.slicedLanes.Load(),
		SlicedBlocks:  s.slicedBlocks.Load(),
		Admission:     s.adm.metrics(),
		Controller:    s.ctl.Stats(),
		Draining:      s.Draining(),
	}
	m.BatchLatency = make([]BatchBucket, numBatchBands)
	for i := range s.batchLat {
		m.BatchLatency[i] = BatchBucket{Batch: batchBandLabels[i], Count: s.batchLat[i].count.Load(), SumNs: s.batchLat[i].sumNs.Load()}
	}
	finalizeMetrics(&m)
	return m
}
