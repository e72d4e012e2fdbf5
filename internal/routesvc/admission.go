package routesvc

import (
	"errors"
	"sync/atomic"
)

// ErrOverload is returned when the slow path (a fresh TSDT/REROUTE
// computation) is shed by admission control. The HTTP layer maps it to 429
// with a Retry-After hint. SSDT requests are never shed: an SSDT tag is the destination address itself
// (Theorem 3.1), so only the blockage-map-dependent REROUTE work
// (Theorems 3.2-3.4) sits behind the gate.
var ErrOverload = errors.New("routesvc: overloaded, slow-path request shed")

// AdmissionConfig parameterizes the slow-path admission gate.
type AdmissionConfig struct {
	// Disabled turns the gate off: every slow-path request is admitted.
	Disabled bool
	// MaxQueue is the bound on concurrent slow-path work (executing
	// REROUTE computations); 0 means 128.
	MaxQueue int
}

const defaultMaxQueue = 128

// admission is the slow-path gate: a fixed bound on concurrent fresh
// TSDT/REROUTE computations. The queue is implicit — a slow-path compute
// holds a ticket from acquire to release, and the depth counter is the
// number of outstanding tickets — so admission costs two atomics on the
// compute path and sheds are immediate (fail-fast, no waiting for a slot).
type admission struct {
	disabled bool
	max      int64

	depth    atomic.Int64  // outstanding slow-path tickets
	admitted atomic.Uint64 // slow-path computes admitted (lifetime)
	shed     atomic.Uint64 // requests refused with ErrOverload (lifetime)
}

func newAdmission(cfg AdmissionConfig) *admission {
	a := &admission{disabled: cfg.Disabled, max: int64(cfg.MaxQueue)}
	if a.max <= 0 {
		a.max = defaultMaxQueue
	}
	return a
}

// acquire takes a slow-path ticket, or refuses if the queue stands at the
// bound. The caller must release() iff acquire returned true.
func (a *admission) acquire() bool {
	if a.disabled {
		return true
	}
	for {
		d := a.depth.Load()
		if d >= a.max {
			return false
		}
		if a.depth.CompareAndSwap(d, d+1) {
			a.admitted.Add(1)
			return true
		}
	}
}

func (a *admission) release() {
	if !a.disabled {
		a.depth.Add(-1)
	}
}

// noteShed records one request refused with ErrOverload.
func (a *admission) noteShed() { a.shed.Add(1) }

// AdmissionMetrics is the /metrics view of the gate.
type AdmissionMetrics struct {
	Enabled  bool   `json:"enabled"`
	Depth    int64  `json:"queue_depth"`
	MaxQueue int    `json:"max_queue"`
	Admitted uint64 `json:"admitted_total"`
	Shed     uint64 `json:"shed_total"`
}

func (a *admission) metrics() AdmissionMetrics {
	return AdmissionMetrics{
		Enabled:  !a.disabled,
		Depth:    a.depth.Load(),
		MaxQueue: int(a.max),
		Admitted: a.admitted.Load(),
		Shed:     a.shed.Load(),
	}
}
