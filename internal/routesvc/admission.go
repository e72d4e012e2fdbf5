package routesvc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverload is returned when the slow path (a fresh TSDT/REROUTE
// computation) is shed by admission control. The HTTP layer maps it to 429
// with a Retry-After hint. Cache hits, coalesced joins and SSDT requests
// are never shed: an SSDT tag is the destination address itself
// (Theorem 3.1), so only the blockage-map-dependent REROUTE work
// (Theorems 3.2-3.4) sits behind the gate.
var ErrOverload = errors.New("routesvc: overloaded, slow-path request shed")

// AdmissionConfig parameterizes the slow-path admission controller.
type AdmissionConfig struct {
	// Disabled turns the gate off: every slow-path request is admitted.
	Disabled bool
	// MaxQueue is the hard bound on concurrent slow-path work (queued +
	// executing REROUTE computations) and the ceiling the adaptive
	// threshold can recover to; 0 means 128.
	MaxQueue int
	// MinQueue is the floor the controller never sheds below, so the slow
	// path keeps draining even under a sustained flood; 0 means 8.
	MinQueue int
	// Round is the controller period: every round the admission threshold
	// is re-derived from that round's hit/queue-depth/shed counters. 0
	// means 100ms; negative disables the background loop (tests step the
	// controller manually).
	Round time.Duration
}

const (
	defaultMaxQueue = 128
	defaultMinQueue = 8
	defaultRound    = 100 * time.Millisecond
)

// admissionRound is one controller round's view of the serving tiers: how
// much traffic the fast path absorbed, how much slow-path work was
// admitted, how much was refused, and how deep the slow-path queue got.
type admissionRound struct {
	Hits     uint64 // fast-path servings (cache hits + coalesced joins)
	Admitted uint64 // slow-path computations admitted
	Shed     uint64 // slow-path requests refused with ErrOverload
	Peak     int    // deepest slow-path occupancy observed
}

// nextThreshold is the per-round admission update rule, the SmartNIC
// offload-threshold control loop (SNIPPETS.md §1: a dynamic threshold
// adjusted each round from offload/overflow/drop counters) transplanted to
// the tag-serving split — AIMD on the slow-path queue bound:
//
//   - A round with sheds is congestion: decrease multiplicatively, so
//     admitted work queues briefly and refusals happen at arrival instead
//     of after a pointless wait. When the fast path carried the round
//     (hits at least 4x the slow-path demand) the shed burst cost little
//     and the backoff is gentle (-1/4); otherwise it is hard (-1/2).
//   - A shed-free round with any traffic proves the bound hurt no one:
//     increase additively (1 + cur/8) back toward the ceiling.
//   - An idle round carries no evidence: hold.
//
// The result is clamped to [lo, hi]. The rule is a pure function of the
// counters so it can be unit-tested without a clock.
func nextThreshold(cur, lo, hi int, r admissionRound) int {
	next := cur
	switch {
	case r.Shed > 0:
		if r.Hits >= 4*(r.Admitted+r.Shed) {
			next = cur - max(1, cur/4)
		} else {
			next = cur - max(1, cur/2)
		}
	case r.Hits > 0 || r.Admitted > 0:
		next = cur + 1 + cur/8
	}
	if next < lo {
		next = lo
	}
	if next > hi {
		next = hi
	}
	return next
}

// admission is the tiered fast/slow-path gate: a bounded work queue in
// front of fresh TSDT/REROUTE computations plus the per-round controller
// that adapts the queue bound. The queue is implicit — a slow-path compute
// holds a ticket from acquire to release, and the depth counter is the
// number of outstanding tickets — so admission costs two atomics on the
// hot path and sheds are immediate (fail-fast, no waiting for a slot).
type admission struct {
	disabled bool
	lo, hi   int
	round    time.Duration

	threshold atomic.Int64 // current queue bound, lo <= threshold <= hi
	depth     atomic.Int64 // outstanding slow-path tickets
	peak      atomic.Int64 // round-local max depth, reset each step

	hits     atomic.Uint64 // fast-path servings (lifetime)
	admitted atomic.Uint64 // slow-path computes admitted (lifetime)
	shed     atomic.Uint64 // requests refused with ErrOverload (lifetime)
	rounds   atomic.Uint64 // controller rounds executed

	// Prior-round totals, touched only by the controller goroutine (or
	// the test calling step()).
	lastHits, lastAdmitted, lastShed uint64

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

func newAdmission(cfg AdmissionConfig) *admission {
	a := &admission{
		disabled: cfg.Disabled,
		lo:       cfg.MinQueue,
		hi:       cfg.MaxQueue,
		round:    cfg.Round,
	}
	if a.hi <= 0 {
		a.hi = defaultMaxQueue
	}
	if a.lo <= 0 {
		a.lo = defaultMinQueue
	}
	if a.lo > a.hi {
		a.lo = a.hi
	}
	if a.round == 0 {
		a.round = defaultRound
	}
	a.threshold.Store(int64(a.hi))
	if !a.disabled && a.round > 0 {
		a.quit = make(chan struct{})
		a.done = make(chan struct{})
		go a.run()
	}
	return a
}

// acquire takes a slow-path ticket, or refuses if the queue stands at the
// admission threshold. The caller must release() iff acquire returned
// true.
func (a *admission) acquire() bool {
	if a.disabled {
		return true
	}
	thr := a.threshold.Load()
	for {
		d := a.depth.Load()
		if d >= thr {
			return false
		}
		if a.depth.CompareAndSwap(d, d+1) {
			a.admitted.Add(1)
			for {
				p := a.peak.Load()
				if d+1 <= p || a.peak.CompareAndSwap(p, d+1) {
					break
				}
			}
			return true
		}
	}
}

func (a *admission) release() {
	if !a.disabled {
		a.depth.Add(-1)
	}
}

// noteHit records a fast-path serving (cache hit or coalesced join) for
// the controller's hit counter.
func (a *admission) noteHit() { a.hits.Add(1) }

// noteShed records one request refused with ErrOverload — coalesced
// followers of a shed flight count too, so the counter matches what
// clients observe.
func (a *admission) noteShed() { a.shed.Add(1) }

// step runs one controller round: snapshot the round's counters, derive
// the next threshold, reset the peak tracker.
func (a *admission) step() {
	if a.disabled {
		return
	}
	a.rounds.Add(1)
	hits, admitted, shed := a.hits.Load(), a.admitted.Load(), a.shed.Load()
	r := admissionRound{
		Hits:     hits - a.lastHits,
		Admitted: admitted - a.lastAdmitted,
		Shed:     shed - a.lastShed,
		Peak:     int(a.peak.Swap(a.depth.Load())),
	}
	a.lastHits, a.lastAdmitted, a.lastShed = hits, admitted, shed
	cur := int(a.threshold.Load())
	a.threshold.Store(int64(nextThreshold(cur, a.lo, a.hi, r)))
}

func (a *admission) run() {
	defer close(a.done)
	t := time.NewTicker(a.round)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.step()
		case <-a.quit:
			return
		}
	}
}

// stop terminates the controller loop (idempotent; a no-op when the loop
// never started).
func (a *admission) stop() {
	a.stopOnce.Do(func() {
		if a.quit != nil {
			close(a.quit)
			<-a.done
		}
	})
}

// retryAfter is the backoff hint, in whole seconds, attached to overload
// refusals: two controller rounds, so a polite retry lands after the
// threshold has had a chance to adapt.
func (a *admission) retryAfter() int {
	secs := int((2*a.round + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// AdmissionMetrics is the /metrics view of the gate.
type AdmissionMetrics struct {
	Enabled   bool   `json:"enabled"`
	Threshold int64  `json:"threshold"`
	Depth     int64  `json:"queue_depth"`
	MinQueue  int    `json:"min_queue"`
	MaxQueue  int    `json:"max_queue"`
	FastHits  uint64 `json:"fast_hits_total"`
	Admitted  uint64 `json:"admitted_total"`
	Shed      uint64 `json:"shed_total"`
	Rounds    uint64 `json:"controller_rounds"`
}

func (a *admission) metrics() AdmissionMetrics {
	return AdmissionMetrics{
		Enabled:   !a.disabled,
		Threshold: a.threshold.Load(),
		Depth:     a.depth.Load(),
		MinQueue:  a.lo,
		MaxQueue:  a.hi,
		FastHits:  a.hits.Load(),
		Admitted:  a.admitted.Load(),
		Shed:      a.shed.Load(),
		Rounds:    a.rounds.Load(),
	}
}
