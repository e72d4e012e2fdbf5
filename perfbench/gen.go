package main

import (
	"fmt"
	"math/rand"
	"slices"

	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// The workloads; README.md records why each was chosen.
const (
	hotSingles = "hot-singles"
	fleetBatch = "fleet-batch"
	fleetChurn = "fleet-churn"
	simSweep   = "sim-sweep"
)

var workloads = []string{hotSingles, fleetBatch, fleetChurn, simSweep}

const (
	netSize     = 1024 // N of every served and simulated network
	hotPairs    = 4096 // warmed (src, dst) pairs per net
	maxFaults   = 8    // link faults fleet-churn keeps outstanding at most
	mutateEvery = 32   // fleet-churn's mutator reports a fault or repair once per this many requests, on average
	churnBatch  = 8    // fleet-churn batch size
	churnNet    = "p0" // the net hot-singles and fleet-churn route on, and fleet-churn mutates
	warmBatch   = 1000 // request size of fleet-batch's warm-up
	warmUniform = 256  // warm-up singles per client where there is no hot set
)

var (
	// batchSizes are fleet-batch's request sizes, sent in rounds.
	batchSizes = []int{64, 200, 1000}
	// fleetNets are the nets fleet-batch spreads its items over.
	fleetNets = []string{"p0", "p1", "p2", "p3"}
)

// item is one route request: a (src, dst) pair on a named net.
type item struct {
	net      string
	src, dst int
	scheme   routesvc.Scheme
}

func (it item) String() string {
	return fmt.Sprintf("%s %s %d->%d", it.net, it.scheme, it.src, it.dst)
}

type opKind uint8

const (
	opRoute  opKind = iota // a /route request of one item
	opBatch                // a /route/batch request
	opFault                // a /fault report of one link
	opRepair               // a /repair report of one link
)

// op is one request of a client's stream. A stream reuses items for its
// next op.
type op struct {
	kind  opKind
	items []item
	net   string        // mutations only
	link  topology.Link // mutations only
}

// plan holds what every client of one run shares, all drawn from the seed:
// the hot set the warm-up routes and the link faults the sim-sweep blocks.
type plan struct {
	workload string
	seed     int64
	p        topology.Params
	hot      []item
	faults   []topology.Link
}

func newPlan(workload string, seed int64) (*plan, error) {
	if !slices.Contains(workloads, workload) {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	pl := &plan{workload: workload, seed: seed, p: topology.MustParams(netSize)}
	rng := rand.New(rand.NewSource(mix(seed, 0)))
	switch workload {
	case hotSingles:
		pl.hot = hotItems(rng, pl.p, []string{churnNet})
	case fleetBatch:
		pl.hot = hotItems(rng, pl.p, fleetNets)
	case simSweep:
		for len(pl.faults) < maxFaults {
			if l := randomNonstraight(rng, pl.p); !slices.Contains(pl.faults, l) {
				pl.faults = append(pl.faults, l)
			}
		}
	}
	return pl, nil
}

// hotItems draws hotPairs pairs per net, alternating the scheme so the
// SSDT/TSDT split is exactly even.
func hotItems(rng *rand.Rand, p topology.Params, nets []string) []item {
	out := make([]item, 0, hotPairs*len(nets))
	for _, net := range nets {
		for i := 0; i < hotPairs; i++ {
			sc := routesvc.SchemeTSDT
			if i%2 == 1 {
				sc = routesvc.SchemeSSDT
			}
			out = append(out, item{net: net, src: rng.Intn(p.Size()), dst: rng.Intn(p.Size()), scheme: sc})
		}
	}
	return out
}

func randomNonstraight(rng *rand.Rand, p topology.Params) topology.Link {
	kind := topology.Plus
	if rng.Intn(2) == 0 {
		kind = topology.Minus
	}
	return topology.Link{Stage: rng.Intn(p.Stages()), From: rng.Intn(p.Size()), Kind: kind}
}

// mix derives an independent generator seed for one stream of a run.
func mix(seed, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x)
}

// stream is one client's seeded request generator.
type stream struct {
	pl      *plan
	rng     *rand.Rand
	n       int             // ops generated
	mutator bool            // reports faults and repairs
	faults  []topology.Link // the mutator's outstanding faults
	pending []topology.Link // faults to report before routing
	sizes   []int           // fleet-batch's current round of batch sizes
	buf     []item
}

// newStream returns client k's stream. Client 0 of fleet-churn is the only
// mutator. The sim-sweep has no served stream of its own: its traced run
// replays the simulated traffic as uniform TSDT requests, and client 0
// first reports the simulated faults.
func newStream(pl *plan, k int) *stream {
	s := &stream{pl: pl, rng: rand.New(rand.NewSource(mix(pl.seed, int64(k)+1))), sizes: slices.Clone(batchSizes)}
	if k == 0 {
		s.mutator = pl.workload == fleetChurn
		if pl.workload == simSweep {
			s.pending = pl.faults
		}
	}
	return s
}

func (s *stream) next() op {
	s.n++
	switch s.pl.workload {
	case hotSingles:
		return op{kind: opRoute, items: s.hotItems(1)}
	case fleetBatch:
		// Each round of three sends every size once, in a fresh order, so
		// that the clients' rounds cannot lock into one phase for a run.
		i := (s.n - 1) % len(batchSizes)
		if i == 0 {
			s.rng.Shuffle(len(s.sizes), func(a, b int) { s.sizes[a], s.sizes[b] = s.sizes[b], s.sizes[a] })
		}
		return op{kind: opBatch, items: s.hotItems(s.sizes[i])}
	}
	if len(s.pending) > 0 {
		l := s.pending[0]
		s.pending = s.pending[1:]
		return op{kind: opFault, net: churnNet, link: l}
	}
	if s.mutator && s.rng.Intn(mutateEvery) == 0 {
		return s.mutation()
	}
	// Three singles to one batch keeps the latency median inside the
	// singles' distribution rather than on the seam between the two.
	kind, size := opRoute, 1
	if s.rng.Intn(4) == 0 {
		kind, size = opBatch, churnBatch
	}
	s.buf = s.buf[:0]
	for i := 0; i < size; i++ {
		sc := routesvc.SchemeTSDT
		if s.pl.workload == fleetChurn && s.rng.Intn(10) == 0 {
			sc = routesvc.SchemeSSDT
		}
		s.buf = append(s.buf, item{net: churnNet, src: s.rng.Intn(netSize), dst: s.rng.Intn(netSize), scheme: sc})
	}
	return op{kind: kind, items: s.buf}
}

func (s *stream) hotItems(k int) []item {
	s.buf = s.buf[:0]
	for i := 0; i < k; i++ {
		s.buf = append(s.buf, s.pl.hot[s.rng.Intn(len(s.pl.hot))])
	}
	return s.buf
}

// mutation toggles one nonstraight link: a repair of an outstanding fault,
// or a fault of a link not yet faulted. Every report changes the blockage
// map, so the e-th report produces epoch e.
func (s *stream) mutation() op {
	if len(s.faults) == maxFaults || (len(s.faults) > 0 && s.rng.Intn(2) == 0) {
		i := s.rng.Intn(len(s.faults))
		l := s.faults[i]
		s.faults = slices.Delete(s.faults, i, i+1)
		return op{kind: opRepair, net: churnNet, link: l}
	}
	for {
		if l := randomNonstraight(s.rng, s.pl.p); !slices.Contains(s.faults, l) {
			s.faults = append(s.faults, l)
			return op{kind: opFault, net: churnNet, link: l}
		}
	}
}

// warmup returns client k's share of the warm-up: every hot item once, in
// requests of the workload's own shape, or where there is no hot set a few
// uniform TSDT singles that open the connections and create the net.
func warmup(pl *plan, k, clients int) []op {
	var mine []item
	for i := k; i < len(pl.hot); i += clients {
		mine = append(mine, pl.hot[i])
	}
	if pl.hot == nil {
		rng := rand.New(rand.NewSource(mix(pl.seed, -int64(k)-1)))
		for i := 0; i < warmUniform; i++ {
			mine = append(mine, item{net: churnNet, src: rng.Intn(netSize), dst: rng.Intn(netSize), scheme: routesvc.SchemeTSDT})
		}
	}
	kind, size := opRoute, 1
	if pl.workload == fleetBatch {
		kind, size = opBatch, warmBatch
	}
	var ops []op
	for len(mine) > 0 {
		n := min(size, len(mine))
		ops = append(ops, op{kind: kind, items: mine[:n:n]})
		mine = mine[n:]
	}
	return ops
}
