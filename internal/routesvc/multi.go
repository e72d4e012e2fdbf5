package routesvc

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultNet is the network name used when a request names none, so a
// single-network deployment never has to spell one.
const DefaultNet = "default"

// ErrTooManyNets is returned when creating one more named network would
// exceed the host's -max-nets cap.
var ErrTooManyNets = fmt.Errorf("%w: too many networks", ErrInvalid)

// Multi hosts many named networks ("partitions" in fleet terms) in one
// process. Every network is an independent Service — its own controller,
// blockage map and epoch counter — created lazily on first use, but all of them share ONE slow-path admission gate: the gate
// bounds the process's REROUTE compute capacity, and that capacity is a
// property of the process, not of any single network. (Sharing the gate
// also keeps fleet capacity comparisons honest: K backends hosting many
// partitions offer exactly K gates' worth of slow path, however the
// partitions are laid out.)
type Multi struct {
	cfg     Config
	maxNets int
	adm     *admission

	mu       sync.RWMutex
	nets     map[string]*Service
	order    []string // creation order, for stable metrics listings
	draining bool
}

// NewMulti builds an empty multi-network host. Every network it creates
// uses cfg (same N and slow-path cost) and
// shares one admission gate built from cfg.Admission; maxNets caps how
// many distinct networks a stream of requests can demand (<=0 means 16 —
// a typo'd net name must not allocate an unbounded number of N-sized
// controllers).
func NewMulti(cfg Config, maxNets int) *Multi {
	if maxNets <= 0 {
		maxNets = 16
	}
	return &Multi{
		cfg:     cfg,
		maxNets: maxNets,
		adm:     newAdmission(cfg.Admission),
		nets:    make(map[string]*Service),
	}
}

// Get returns the named network's Service, creating it on first use.
// The empty name maps to DefaultNet.
func (m *Multi) Get(net string) (*Service, error) {
	if net == "" {
		net = DefaultNet
	}
	m.mu.RLock()
	s, ok := m.nets[net]
	draining := m.draining
	m.mu.RUnlock()
	if ok {
		return s, nil
	}
	if draining {
		return nil, ErrDraining
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok = m.nets[net]; ok {
		return s, nil
	}
	if m.draining {
		return nil, ErrDraining
	}
	if len(m.nets) >= m.maxNets {
		return nil, fmt.Errorf("%w %q (cap %d)", ErrTooManyNets, net, m.maxNets)
	}
	// Creation runs under the write lock: concurrent first requests for
	// the same net must not race two controllers into existence.
	s, err := newService(m.cfg, m.adm, false)
	if err != nil {
		return nil, err
	}
	m.nets[net] = s
	m.order = append(m.order, net)
	return s, nil
}

// Nets returns the hosted network names in creation order.
func (m *Multi) Nets() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// N returns the (shared) network size.
func (m *Multi) N() int { return m.cfg.N }

// Draining reports whether Drain has begun.
func (m *Multi) Draining() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.draining
}

// Drain refuses new networks, drains every hosted Service (waiting out
// their in-flight requests), then stops the
// shared admission gate — gate last, because a draining Service may
// still be finishing admitted slow-path work.
func (m *Multi) Drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return
	}
	m.draining = true
	svcs := make([]*Service, 0, len(m.order))
	for _, name := range m.order {
		svcs = append(svcs, m.nets[name])
	}
	m.mu.Unlock()
	for _, s := range svcs {
		s.Drain()
	}
	m.adm.stop()
}

// RetryAfter mirrors Service.RetryAfter for the shared gate.
func (m *Multi) RetryAfter() int { return m.adm.retryAfter() }

// Metrics returns the cluster view (every counter summed across nets,
// derived rates recomputed, Admission replaced by the one shared gate's
// snapshot) plus a per-network summary sorted by name.
func (m *Multi) Metrics() (Metrics, []NetMetrics) {
	m.mu.RLock()
	names := append([]string(nil), m.order...)
	svcs := make([]*Service, 0, len(names))
	for _, name := range names {
		svcs = append(svcs, m.nets[name])
	}
	draining := m.draining
	m.mu.RUnlock()

	var merged Metrics
	merged.N = m.cfg.N
	nets := make([]NetMetrics, 0, len(names))
	for i, s := range svcs {
		sm := s.Metrics()
		MergeMetrics(&merged, sm)
		nets = append(nets, NetMetrics{
			Net:      names[i],
			Requests: sm.Requests,
			Epoch:    sm.Epoch,
		})
	}
	// One process, one gate: the per-Service snapshots merged above all
	// describe the same shared gate, so the sums are k-fold inflated.
	// Overwrite with the gate's own snapshot.
	merged.Admission = m.adm.metrics()
	merged.Draining = draining
	sort.Slice(nets, func(i, j int) bool { return nets[i].Net < nets[j].Net })
	return merged, nets
}
