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
// The hot path reuses the flat ring-buffer/bitset style of the packet
// core: all lane FIFOs live in one preallocated flit array, per-link
// bitmasks track non-empty and claimed lanes, credits are bare integer
// counters, and the steady-state cycle loop performs zero heap
// allocations. Randomness is the same counter-based generator as
// internal/simulator's (internal/ctrrng: every draw a pure function of
// seed, cycle, entity and purpose), which is what makes the sharded
// intra-run stepping (Config.IntraWorkers) bit-identical for every worker
// count and lets internal/refwh re-derive every decision independently as
// a differential oracle. Build with -tags simcheck to re-verify flit
// conservation, per-lane credit balance and lane-overflow freedom after
// every cycle.
package wormhole

import (
	"fmt"
	"math"
	"runtime"

	"iadm/internal/blockage"
	"iadm/internal/ctrrng"
	"iadm/internal/fanout"
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

	// IntraWorkers >= 2 steps each cycle on that many worker goroutines
	// over contiguous switch-column shards, with barriers between stage
	// phases; metrics are bit-identical for every value (see engine.go).
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

// sim holds the preallocated state of one configuration. Links use the
// dense index (stage*N+from)*3 + kind shared with the packet core; lane q
// of link e has dense lane index e*Lanes + q.
type sim struct {
	cfg Config
	p   topology.Params

	n int // stages
	N int // switches per stage
	L int // 3*N*n links
	V int // lanes per link
	D int // flits per lane

	rng ctrrng.RNG

	// Lane FIFOs: one flat flit array, stride D per lane, with per-lane
	// head/size cursors. credit[q] is the upstream view of lane q's free
	// space (credit+size == D at every barrier); route[q] is the
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

	// toOf[link] is the switch the link leads to; in[((r-1)*N+sw)*3+j] is
	// the j-th incoming link of switch sw at column r (ascending dense
	// index), the sharded sweep's iteration table.
	toOf []int32
	in   []int32

	staticBlocked []bool
	hasStatic     bool
	blockable     bool

	failUntil      []int32
	faulty         bool
	invLn1mF       float64
	nextFaultTrial int64

	// Per-source injection state: a source streams one packet at a time
	// into its claimed stage-0 lane. pending is the flits still to inject
	// (0 = idle), srcLane/srcDst/srcBorn the worm being streamed.
	srcPending []int32
	srcLane    []int32
	srcDst     []int32
	srcBorn    []int32

	// forwards[link] counts flits forwarded out of the link during
	// measured cycles (drops excluded), the utilization numerator.
	forwards []int32

	policy      simulator.Policy
	traffic     simulator.TrafficKind
	singleInput bool

	loadT, hotT uint64
	dstMask     uint64

	nowCycle int

	latHist      []int32
	occupied     int64 // total flits queued in lanes, merged per cycle
	queueSum     int64
	queueSamples int64
	maxDepth     int32

	lat, utilS, utilN stats.Stream

	// intraP is the effective shard count; shards hold the per-shard
	// cumulative accumulators (shard 0 doubles as the sequential engine's
	// accumulator), shardLo the contiguous column partition, pool the
	// persistent worker pool (nil when intraP == 1).
	intraP  int
	shards  []shardState
	shardLo []int32
	pool    *fanout.Pool

	check bool
	ck    checkCounters

	m Metrics
}

// checkCounters shadow the flit counters from cycle 0 (warmup included)
// so the conservation balance is exact at every cycle under simcheck.
type checkCounters struct {
	fInjected  int64
	fDelivered int64
	fDropped   int64
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
	if cfg.Load < 0 || cfg.Load > 1 {
		return fmt.Errorf("wormhole: load %v out of [0,1]", cfg.Load)
	}
	if cfg.PacketFlits < 1 || cfg.PacketFlits > 1<<12 {
		return fmt.Errorf("wormhole: packet length %d flits outside [1,%d]", cfg.PacketFlits, 1<<12)
	}
	if cfg.Lanes < 1 || cfg.Lanes > 64 {
		return fmt.Errorf("wormhole: lane count %d outside [1,64] (lane bitmasks are one word per link)", cfg.Lanes)
	}
	if cfg.LaneDepth < 1 {
		return fmt.Errorf("wormhole: lane depth %d < 1", cfg.LaneDepth)
	}
	if cfg.Cycles < 1 {
		return fmt.Errorf("wormhole: cycles %d < 1", cfg.Cycles)
	}
	if cfg.Warmup < 0 {
		return fmt.Errorf("wormhole: warmup %d < 0", cfg.Warmup)
	}
	if cfg.Warmup+cfg.Cycles >= math.MaxInt32 {
		return fmt.Errorf("wormhole: warmup+cycles %d overflows the cycle counter", cfg.Warmup+cfg.Cycles)
	}
	if cfg.Traffic == simulator.PermutationTraffic {
		if len(cfg.Perm) != cfg.N {
			return fmt.Errorf("wormhole: permutation has %d entries, want %d", len(cfg.Perm), cfg.N)
		}
		seen := make([]bool, cfg.N)
		for src, dst := range cfg.Perm {
			if dst < 0 || dst >= cfg.N {
				return fmt.Errorf("wormhole: permutation maps source %d to %d, outside [0,%d)", src, dst, cfg.N)
			}
			if seen[dst] {
				return fmt.Errorf("wormhole: permutation maps two sources to destination %d", dst)
			}
			seen[dst] = true
		}
	}
	if cfg.Traffic == simulator.Hotspot {
		if cfg.HotspotDest < 0 || cfg.HotspotDest >= cfg.N {
			return fmt.Errorf("wormhole: hotspot destination %d out of range", cfg.HotspotDest)
		}
		if cfg.HotspotFrac < 0 || cfg.HotspotFrac > 1 {
			return fmt.Errorf("wormhole: hotspot fraction %v out of [0,1]", cfg.HotspotFrac)
		}
	}
	if cfg.Traffic == simulator.Tornado && cfg.N < 4 {
		return fmt.Errorf("wormhole: tornado traffic degenerates to self-traffic at N=%d; need N >= 4", cfg.N)
	}
	if cfg.FaultRate < 0 || cfg.FaultRate > 1 {
		return fmt.Errorf("wormhole: fault rate %v out of [0,1]", cfg.FaultRate)
	}
	if cfg.FaultRate > 0 && cfg.RepairCycles < 0 {
		return fmt.Errorf("wormhole: repair cycles %d < 0 with fault rate %v", cfg.RepairCycles, cfg.FaultRate)
	}
	if cfg.IntraWorkers < 0 {
		return fmt.Errorf("wormhole: intra workers %d < 0", cfg.IntraWorkers)
	}
	return nil
}

// effectiveIntra is the shard count a config actually steps with: at
// least 1, at most one shard per switch column.
func effectiveIntra(cfg Config) int {
	p := cfg.IntraWorkers
	if p < 1 {
		p = 1
	}
	if p > cfg.N {
		p = cfg.N
	}
	return p
}

// newSim validates cfg and allocates every buffer a run needs; reset must
// be called before run.
func newSim(cfg Config) (*sim, error) {
	p, err := topology.NewParams(cfg.N)
	if err != nil {
		return nil, err
	}
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	n, N := p.Stages(), cfg.N
	L := 3 * N * n
	V, D := cfg.Lanes, cfg.LaneDepth
	Q := L * V
	s := &sim{
		cfg: cfg, p: p,
		n: n, N: N, L: L, V: V, D: D,
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

		toOf: make([]int32, L),

		failUntil:  make([]int32, L),
		srcPending: make([]int32, N),
		srcLane:    make([]int32, N),
		srcDst:     make([]int32, N),
		srcBorn:    make([]int32, N),
		forwards:   make([]int32, L),

		policy:      cfg.Policy,
		traffic:     cfg.Traffic,
		singleInput: cfg.Switches == simulator.SingleInput,
		faulty:      cfg.FaultRate > 0,
		loadT:       ctrrng.BernoulliThreshold(cfg.Load),
		hotT:        ctrrng.BernoulliThreshold(cfg.HotspotFrac),
		dstMask:     uint64(N - 1),
	}
	for idx := 0; idx < L; idx++ {
		s.toOf[idx] = int32(topology.LinkFromIndex(p, idx).To(p))
	}
	s.buildIn()
	if cfg.Blocked != nil {
		s.staticBlocked = make([]bool, L)
		for idx := 0; idx < L; idx++ {
			if cfg.Blocked.Blocked(topology.LinkFromIndex(p, idx)) {
				s.staticBlocked[idx] = true
				s.hasStatic = true
			}
		}
	}
	if s.faulty && cfg.FaultRate < 1 {
		s.invLn1mF = 1 / math.Log(1-cfg.FaultRate)
	}
	s.blockable = s.hasStatic || s.faulty
	latBuckets := cfg.Warmup + cfg.Cycles + 1
	if latBuckets > 1<<16 {
		latBuckets = 1 << 16
	}
	s.latHist = make([]int32, latBuckets)
	s.lat = stats.NewStream(1, latBuckets)
	s.utilS = stats.NewStream(1.0/1024, 1025)
	s.utilN = stats.NewStream(1.0/1024, 1025)
	s.intraP = effectiveIntra(cfg)
	s.shardLo = make([]int32, s.intraP+1)
	for k := 0; k <= s.intraP; k++ {
		s.shardLo[k] = int32(k * N / s.intraP)
	}
	s.shards = make([]shardState, s.intraP)
	for k := range s.shards {
		s.shards[k].latHist = make([]int32, latBuckets)
	}
	if s.intraP > 1 {
		s.pool = fanout.NewPool(s.intraP, s.runShardPhase)
	}
	return s, nil
}

// buildIn prepares the per-switch incoming-link table every phase sweep
// iterates: row (r-1)*N+sw lists the three stage-(r-1) links into switch
// sw of column r, in ascending dense index.
func (s *sim) buildIn() {
	s.in = make([]int32, s.n*s.N*3)
	fill := make([]int8, s.n*s.N)
	for idx := 0; idx < s.L; idx++ {
		stage := idx / (3 * s.N)
		row := stage*s.N + int(s.toOf[idx])
		s.in[row*3+int(fill[row])] = int32(idx)
		fill[row]++
	}
	for row, c := range fill {
		if c != 3 {
			panic(fmt.Sprintf("wormhole: switch row %d has %d incoming links, want 3", row, c))
		}
	}
}

// reset rewinds the sim to cycle 0 with a fresh seed, reusing every
// buffer.
func (s *sim) reset(seed int64) {
	s.rng = ctrrng.New(seed)
	clear(s.head)
	clear(s.size)
	clear(s.occMask)
	clear(s.claimMask)
	clear(s.linkFlits)
	clear(s.rotate)
	clear(s.failUntil)
	clear(s.srcPending)
	clear(s.forwards)
	clear(s.latHist)
	for q := range s.credit {
		s.credit[q] = int32(s.D)
		s.route[q] = laneNone
	}
	s.occupied, s.queueSum, s.queueSamples = 0, 0, 0
	s.maxDepth = 0
	s.nowCycle = 0
	s.check = invariantsEnabled
	s.ck = checkCounters{}
	s.m = Metrics{}
	s.lat.Reset()
	s.utilS.Reset()
	s.utilN.Reset()
	for k := range s.shards {
		s.shards[k].reset()
	}
	if s.faulty {
		s.nextFaultTrial = s.advanceFaultTrial(-1)
	}
}

// finish derives the run-level metrics from the accumulated counters.
func (s *sim) finish() Metrics {
	s.m.Throughput = float64(s.m.Delivered) / float64(s.cfg.Cycles) / float64(s.N)
	s.m.FlitThroughput = float64(s.m.FlitsDelivered) / float64(s.cfg.Cycles) / float64(s.N)
	if s.queueSamples > 0 {
		s.m.MeanLaneOcc = float64(s.queueSum) / float64(s.queueSamples)
	}
	s.m.MaxLaneDepth = int(s.maxDepth)
	for v, c := range s.latHist {
		s.lat.AddN(float64(v), int(c))
	}
	if s.check {
		s.checkLatencyMass()
	}
	for idx := 0; idx < s.L; idx++ {
		util := float64(s.forwards[idx]) / float64(s.cfg.Cycles)
		if idx%3 != 1 { // kinds are Minus(0), Straight(1), Plus(2)
			s.utilN.Add(util)
		} else {
			s.utilS.Add(util)
		}
	}
	s.m.Latency = s.lat
	s.m.UtilStraight = s.utilS
	s.m.UtilNonstraight = s.utilN
	return s.m
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (Metrics, error) {
	s, err := newSim(cfg)
	if err != nil {
		return Metrics{}, err
	}
	defer s.pool.Close()
	s.reset(cfg.Seed)
	return s.run(), nil
}

// Runner executes repeated runs of one configuration without
// reallocating per-run state, so the steady-state cycle loop performs
// zero heap allocations. Returned Metrics share their stream storage with
// the Runner and are invalidated by the next call.
type Runner struct {
	s *sim
}

// NewRunner validates cfg and preallocates a reusable simulation.
func NewRunner(cfg Config) (*Runner, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	r := &Runner{s: s}
	if s.pool != nil {
		runtime.SetFinalizer(r, func(r *Runner) { r.s.pool.Close() })
	}
	return r, nil
}

// Run executes one run with the configured seed.
func (r *Runner) Run() Metrics { return r.RunSeed(r.s.cfg.Seed) }

// RunSeed executes one run with the given seed, reusing all buffers.
func (r *Runner) RunSeed(seed int64) Metrics {
	r.s.reset(seed)
	return r.s.run()
}

// Close releases the Runner's intra-run worker goroutines (a no-op when
// IntraWorkers <= 1). The Runner must not be used afterwards.
func (r *Runner) Close() {
	runtime.SetFinalizer(r, nil)
	r.s.pool.Close()
}
