// Package fleet is the horizontal layer of the reproduction: a thin HTTP
// router that partitions (network, src, dst) traffic across several
// routesvc backends. Partitions are whole networks — each named network
// is one independent IADM instance with its own blockage map and epoch —
// placed on a consistent-hash ring with virtual nodes, replicated on R
// distinct backends. Within a partition, (src, dst) keys pin to one
// replica by a hash of the key — a deterministic placement that spreads
// a partition's pairs evenly over its replicas; fault and repair reports
// fan out to every replica of the partition so all of them compute TSDT
// tags against the same blockage map (no replica may keep answering
// under the pre-fault map).
package fleet

import (
	"fmt"
	"sort"
	"sync"

	"iadm/internal/ctrrng"
)

// vnodes is the virtual-node count per backend on the ring.
const vnodes = 64

// Ring places backends on a consistent-hash circle. Each backend
// contributes vnodes points; a partition's replica set is the first R
// distinct backends clockwise from the partition's hash. Replica sets
// are memoized per partition, so the hot-path Owner lookup is a cached
// map read plus integer hashing — no allocation, no ring walk.
type Ring struct {
	backends []string
	replicas int
	points   []ringPoint

	mu   sync.RWMutex
	sets map[string][]int
}

type ringPoint struct {
	hash    uint64
	backend int
}

// fnv1a hashes a string without allocating (the compiler keeps the
// byte-wise loop off the heap; no []byte conversion happens).
func fnv1a(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// NewRing builds a ring of the given backends with R-way replication.
// Backend order is identity: callers address backends by index into the
// slice they passed.
func NewRing(backends []string, replicas int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one backend")
	}
	if replicas <= 0 {
		replicas = 1
	}
	if replicas > len(backends) {
		return nil, fmt.Errorf("fleet: %d replicas want %d distinct backends, have %d",
			replicas, replicas, len(backends))
	}
	r := &Ring{
		backends: append([]string(nil), backends...),
		replicas: replicas,
		points:   make([]ringPoint, 0, len(backends)*vnodes),
		sets:     make(map[string][]int),
	}
	for b, name := range r.backends {
		base := fnv1a(name)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    ctrrng.SplitMix64(base + uint64(v)),
				backend: b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Backends returns the backend names in index order.
func (r *Ring) Backends() []string { return r.backends }

// Replicas returns R.
func (r *Ring) Replicas() int { return r.replicas }

// ReplicaSet returns the partition's replica backends in ring order
// (element 0 is the primary vnode owner). The returned slice is shared
// and must not be mutated.
func (r *Ring) ReplicaSet(net string) []int {
	r.mu.RLock()
	set, ok := r.sets[net]
	r.mu.RUnlock()
	if ok {
		return set
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if set, ok = r.sets[net]; ok {
		return set
	}
	set = r.walk(ctrrng.SplitMix64(fnv1a(net)))
	r.sets[net] = set
	return set
}

// walk collects the first R distinct backends clockwise from h.
func (r *Ring) walk(h uint64) []int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	set := make([]int, 0, r.replicas)
	seen := 0
	for n := 0; n < len(r.points) && seen < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		dup := false
		for _, b := range set {
			if b == p.backend {
				dup = true
				break
			}
		}
		if !dup {
			set = append(set, p.backend)
			seen++
		}
	}
	return set
}

// keyHash spreads one (src, dst) pair over a partition's replica set.
// Owner, the router's single placement and its batch placement (ownerAt)
// all place a key by it.
func keyHash(src, dst int) uint64 {
	return ctrrng.SplitMix64(uint64(src)<<32 | uint64(uint32(dst)))
}

// Owner returns the backend index that owns (net, src, dst), i.e. the
// replica the key's hash places the pair on, and the partition's
// replica set (for retries to the other replicas). Zero-alloc on
// the hot path once the partition's set is memoized.
func (r *Ring) Owner(net string, src, dst int) (int, []int) {
	set := r.ReplicaSet(net)
	return set[keyHash(src, dst)%uint64(len(set))], set
}
