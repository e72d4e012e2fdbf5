// Package wormhole is a flit-level, cycle-synchronous wormhole-routing
// simulator for the IADM network: the store-and-forward packet model of
// internal/simulator replaced by the switching discipline the Stergiou
// study (arXiv:2007.02550) evaluates for exactly this class of multistage
// networks — packets split into head/body/tail flits, per-link virtual
// lanes with small flit buffers, and credit-based backpressure.
//
// Model. Every output link of every switch carries Lanes virtual lanes,
// each a LaneDepth-deep flit FIFO. A packet is PacketFlits flits: the head
// carries the destination tag and claims resources, the body streams
// behind it, the tail releases them. Per cycle each link forwards at most
// one flit (the lanes multiplex the physical channel: a rotating-priority
// arbiter scans lanes and the first one whose front flit can actually
// advance wins, so a credit-blocked worm never idles the wire while
// another lane has work) and accepts at most one flit (the input-port
// constraint). A head flit at the front of a lane routes with the same
// destination-tag ladder as the packet simulator — straight when the
// stage bit already matches, otherwise a nonstraight link chosen by
// Policy, which Theorem 3.1 makes universally safe — then claims the
// lowest free lane on the chosen link; the claim holds until the tail
// passes. Body and tail flits follow the head's claimed lane and advance
// only against credit (free downstream buffer slots, returned when the
// downstream lane pops). Blocked and transiently failed links are
// excluded from the head's ladder; a head with no usable link drops its
// whole worm, draining the body flits as they arrive.
//
// The network model is the packet engine's (simulator.Model, embedded by
// value): the links, the fault process and static blockage, the routing
// ladder (AdaptiveSSDT reads the flits queued per link), the traffic
// source, the cycle loop, and the run scaffold.
// This package adds the flits, lanes and credits, its own draw-purpose
// constants (rng.go), and its Config and Metrics.
//
// The hot path reuses the flat-buffer/bitset style of the packet core:
// all lane FIFOs live in one preallocated flit array, per-link
// bitmasks track non-empty and claimed lanes, credits are bare integer
// counters, and the steady-state cycle loop performs zero heap
// allocations. Randomness is the counter-based generator of
// internal/ctrrng (every draw a pure function of seed, cycle, entity and
// purpose), which lets internal/refwh re-derive every decision
// independently as a differential oracle. Build with -tags simcheck to re-verify flit conservation,
// per-lane credit balance and lane-overflow freedom after every cycle.
package wormhole

import (
	"fmt"

	"iadm/internal/blockage"
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

// Config parameterizes a wormhole run. Policy, traffic and switch
// semantics reuse the packet simulator's vocabulary so scenario files and
// CLI spellings stay uniform across the two modes.
type Config struct {
	N           int              // network size (power of two)
	Policy      simulator.Policy // nonstraight link selection policy for head flits
	Load        float64          // probability an idle source starts a packet per cycle, 0..1
	PacketFlits int              // flits per packet (head counts; 1 = head==tail)
	Lanes       int              // virtual lanes per link, 1..64
	LaneDepth   int              // flit buffer depth per lane (>= 1)
	Cycles      int              // measured cycles
	Warmup      int              // cycles before measurement starts (>= 0)
	Seed        int64            // PRNG seed (deterministic runs)

	Traffic     simulator.TrafficKind
	HotspotDest int     // Hotspot: the favoured destination
	HotspotFrac float64 // Hotspot: fraction of traffic to HotspotDest
	Perm        []int   // PermutationTraffic: the fixed destination map

	// Switches selects crossbar (Gamma) or single-input (IADM) switch
	// semantics: SingleInput lets one flit through a switch per cycle,
	// Crossbar lets every output link accept one.
	Switches simulator.SwitchModel

	// Blocked, if non-nil, marks links head flits may never route onto;
	// worms whose head finds no usable link are dropped. Snapshot at run
	// start.
	Blocked *blockage.Set

	// FaultRate, if positive, fails each link independently with this
	// probability per cycle for RepairCycles cycles; failed links behave
	// like blocked ones in the head's ladder.
	FaultRate    float64
	RepairCycles int

	// IntraWorkers is accepted and ignored, as in simulator.Config: every
	// run steps on one goroutine (DESIGN §6). A negative value is still
	// rejected. Run batches (RunMany, Sweep) to use more cores.
	IntraWorkers int
}

// Metrics reports the outcome of a run. Packet counters mirror the packet
// simulator's; the flit counters resolve the same traffic at flit
// granularity, which is what the conservation invariant balances.
type Metrics struct {
	Injected  int // packets whose head entered a stage-0 lane during measurement
	Delivered int // packets whose tail ejected during measurement
	Dropped   int // packets dropped (no usable link at injection or in flight)
	Refused   int // injections refused because the chosen link had no free lane

	FlitsInjected  int // flits accepted into stage-0 lanes during measurement
	FlitsDelivered int // flits ejected at the output column during measurement
	FlitsDropped   int // flits discarded draining dropped worms during measurement

	Latency        stats.Stream // cycles from head injection to tail ejection
	MaxLaneDepth   int          // largest lane occupancy observed (warmup included)
	MeanLaneOcc    float64      // time-average flits per lane
	Throughput     float64      // packets delivered per cycle per source
	FlitThroughput float64      // flits delivered per cycle per source

	// Per-link flit-forward rate (flits per measured cycle), aggregated by
	// link kind as in the packet simulator.
	UtilStraight    stats.Stream
	UtilNonstraight stats.Stream
}

// flit is the unit of transfer. Every flit of a packet carries the
// destination and the head-injection cycle so ejection and invariant
// checks need no per-worm side table; meta marks head/tail.
type flit struct {
	dst  int32
	born int32
	meta uint8
}

const (
	metaHead = 1 << 0
	metaTail = 1 << 1
)

// Lane-route sentinels. route[q] >= 0 names the downstream lane the worm
// occupying lane q has claimed; laneNone means no claim (head not yet
// forwarded, or last-stage lane); laneDropping marks a worm being drained
// after its head was dropped.
const (
	laneNone     = -1
	laneDropping = -2
)

// sim is the wormhole engine: the shared simulator.Model (links, faults,
// routing ladder, traffic source and cycle loop) plus the lanes, flits
// and credits. Lane q of link e has dense lane index e*Lanes + q.
type sim struct {
	simulator.Model
	cfg Config

	// in[((r-1)*N+sw)*3 + j] is the j-th incoming link (ascending dense
	// index) of switch sw at column r, for r = 1..n (r = n is the output
	// column): the per-switch SingleInput and input-port budgets walk it.
	in []int32

	V int // lanes per link
	D int // flits per lane

	// Lane FIFOs: one flat flit array, stride D per lane, with per-lane
	// head/size cursors. credit[q] is the upstream view of lane q's free
	// space (credit+size == D after every cycle); route[q] is the
	// downstream lane claimed by the worm currently holding q.
	buf    []flit
	head   []int32
	size   []int32
	credit []int32
	route  []int32

	// Per-link lane bitmasks and counters: occMask bit l set iff lane l is
	// non-empty, claimMask bit l set iff lane l is claimed by a worm
	// (head pushed, tail not yet popped), linkFlits the total flits queued
	// on the link (the adaptive policy's congestion signal), rotate the
	// lane the forward arbiter scans first.
	occMask   []uint64
	claimMask []uint64
	linkFlits []int32
	rotate    []int32
	fullMask  uint64 // (1<<V)-1: every lane claimed

	// Per-source injection state: a source streams one packet at a time
	// into its claimed stage-0 lane. pending is the flits still to inject
	// (0 = idle), srcLane/srcDst/srcBorn the worm being streamed.
	srcPending []int32
	srcLane    []int32
	srcDst     []int32
	srcBorn    []int32
}

// model is the shared view of cfg.
func (cfg *Config) model() simulator.ModelConfig {
	return simulator.ModelConfig{N: cfg.N, Policy: cfg.Policy, Load: cfg.Load, Cycles: cfg.Cycles,
		Warmup: cfg.Warmup, Seed: cfg.Seed, Traffic: cfg.Traffic, HotspotDest: cfg.HotspotDest,
		HotspotFrac: cfg.HotspotFrac, Perm: cfg.Perm, Switches: cfg.Switches, Blocked: cfg.Blocked,
		FaultRate: cfg.FaultRate, RepairCycles: cfg.RepairCycles, IntraWorkers: cfg.IntraWorkers}
}

// Validate reports whether cfg would be accepted by Run, without
// allocating simulation state. It is the config contract shared with the
// refwh differential oracle, which must reject exactly what this package
// rejects.
func Validate(cfg Config) error {
	if _, err := topology.NewParams(cfg.N); err != nil {
		return err
	}
	return validate(&cfg)
}

func validate(cfg *Config) error {
	if cfg.PacketFlits < 1 || cfg.PacketFlits > 1<<12 {
		return fmt.Errorf("wormhole: packet length %d flits outside [1,%d]", cfg.PacketFlits, 1<<12)
	}
	if cfg.Lanes < 1 || cfg.Lanes > 64 {
		return fmt.Errorf("wormhole: lane count %d outside [1,64] (lane bitmasks are one word per link)", cfg.Lanes)
	}
	if cfg.LaneDepth < 1 {
		return fmt.Errorf("wormhole: lane depth %d < 1", cfg.LaneDepth)
	}
	return cfg.model().Validate("wormhole")
}

// newSim validates cfg and allocates every buffer a run needs; Reset must
// be called before a run.
func newSim(cfg Config) (*sim, error) {
	p, err := topology.NewParams(cfg.N)
	if err != nil {
		return nil, err
	}
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	L := 3 * cfg.N * p.Stages()
	V, D := cfg.Lanes, cfg.LaneDepth
	Q := L * V
	s := &sim{
		cfg: cfg, V: V, D: D,
		buf:    make([]flit, Q*D),
		head:   make([]int32, Q),
		size:   make([]int32, Q),
		credit: make([]int32, Q),
		route:  make([]int32, Q),

		occMask:   make([]uint64, L),
		claimMask: make([]uint64, L),
		linkFlits: make([]int32, L),
		rotate:    make([]int32, L),
		// uint64(1)<<64 is 0 in Go, so V == 64 wraps to the all-ones mask,
		// exactly the full-claim sentinel wanted there.
		fullMask: uint64(1)<<uint(V) - 1,

		srcPending: make([]int32, cfg.N),
		srcLane:    make([]int32, cfg.N),
		srcDst:     make([]int32, cfg.N),
		srcBorn:    make([]int32, cfg.N),
	}
	s.Init(p, cfg.model(), simulator.Spec{
		Name:    "wormhole",
		Draws:   simulator.Draws{Load: drawWhLoad, Dst: drawWhDst, Hot: drawWhHot, Fault: drawWhFault},
		Load:    s.linkFlits,
		Buffers: V,
		Step:    s.step,
		Check:   s.checkInvariants,
	})
	s.buildIn()
	return s, nil
}

// buildIn fills the incoming-link table: row (r-1)*N+sw lists the three
// stage-(r-1) links into switch sw of column r, in ascending dense index.
func (s *sim) buildIn() {
	s.in = make([]int32, s.L)
	fill := make([]int8, s.Stages*s.N)
	for idx := 0; idx < s.L; idx++ {
		row := idx/(3*s.N)*s.N + int(s.ToOf[idx])
		s.in[row*3+int(fill[row])] = int32(idx)
		fill[row]++
	}
	for row, c := range fill {
		if c != 3 {
			panic(fmt.Sprintf("wormhole: switch row %d has %d incoming links, want 3", row, c))
		}
	}
}

// Reset rewinds the sim to cycle 0 with a fresh seed, reusing every
// buffer.
func (s *sim) Reset(seed int64) {
	s.Rewind(seed, invariantsEnabled)
	clear(s.head)
	clear(s.size)
	clear(s.occMask)
	clear(s.claimMask)
	clear(s.linkFlits)
	clear(s.rotate)
	clear(s.srcPending)
	for q := range s.credit {
		s.credit[q] = int32(s.D)
		s.route[q] = laneNone
	}
}

// Metrics derives the run's metrics once the model has run.
func (s *sim) Metrics() Metrics {
	r := s.Finish()
	return Metrics{
		Injected: r.Injected, Delivered: r.Delivered, Dropped: r.Dropped, Refused: r.Refused,
		FlitsInjected: r.FlitsInjected, FlitsDelivered: r.FlitsDelivered, FlitsDropped: r.FlitsDropped,
		Latency: r.Latency, MaxLaneDepth: r.MaxOcc, MeanLaneOcc: r.MeanOcc, Throughput: r.Throughput,
		FlitThroughput:  float64(r.FlitsDelivered) / float64(s.cfg.Cycles) / float64(s.N),
		UtilStraight:    r.UtilStraight,
		UtilNonstraight: r.UtilNonstraight,
	}
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	s, err := newSim(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return simulator.RunOnce[Metrics](s, cfg.Seed), nil
}

// Runner executes repeated runs of one configuration without
// reallocating per-run state (see simulator.Reusable).
type Runner = simulator.Reusable[Metrics]

// NewRunner validates cfg and preallocates a reusable simulation.
func NewRunner(cfg Config) (*Runner, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return simulator.NewReusable[Metrics](s, cfg.Seed), nil
}

// batch is the wormhole engine's simulator.Batch.
var batch = simulator.Batch[Config, Metrics]{
	Name:  "wormhole",
	Model: (*Config).model,
	Detail: func(c *Config) string {
		return fmt.Sprintf("flits=%d lanes=%d depth=%d", c.PacketFlits, c.Lanes, c.LaneDepth)
	},
	Seed: func(c *Config) *int64 { return &c.Seed },
	New:  func(c Config) (simulator.Engine[Metrics], error) { return newSim(c) },
}

// RunMany executes every config as an independent run, fanning out across
// a worker pool (see simulator.Batch.RunManyWorkers).
func RunMany(cfgs []Config) ([]Metrics, error) {
	return RunManyWorkers(cfgs, 0)
}

// RunManyWorkers is RunMany with an explicit worker bound; workers <= 0
// means automatic sizing.
func RunManyWorkers(cfgs []Config, workers int) ([]Metrics, error) {
	return batch.RunManyWorkers(cfgs, workers)
}

// Sweep builds and runs `points` configs derived from base: point i
// copies base, decorrelates the seed to base.Seed + i, then applies
// vary(i, &cfg) if non-nil. Results come back in point order.
func Sweep(base Config, points, workers int, vary func(i int, cfg *Config)) ([]Metrics, error) {
	return batch.Sweep(base, points, workers, func(i int, cfg *Config) {
		cfg.Seed += int64(i)
		if vary != nil {
			vary(i, cfg)
		}
	})
}
