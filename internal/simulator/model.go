package simulator

import (
	"fmt"
	"math"
	"math/bits"

	"iadm/internal/blockage"
	"iadm/internal/ctrrng"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

// The network model both simulation engines step: the packet engine of
// this package and the flit-level engine of internal/wormhole. It holds
// everything the two share — the links and their switches, the transient
// fault process and static blockage, the SSDT routing ladder, the traffic
// source, the cycle loop with its accumulators, and the end-of-run
// metrics — and each engine embeds one Model by value and adds only its
// buffers (packet FIFOs; lanes, flits and credits) and their stepping.
//
// A run steps each cycle as phases: the fault process, then deliver (the
// last stage's links into the output ports), then stages n-2..0, then
// inject. Back to front, so a unit (packet or flit) advances at most one
// stage per cycle and a pop frees its slot for the upstream push phase of
// the same cycle. The model runs the fault process (O(faults) per cycle,
// read-only during the phases); the engine's Spec.Step runs the other
// phases of one cycle on the calling goroutine and counts into the
// model's one accumulator set, Acc. A run is never split across
// goroutines: batches of independent runs (RunManyWorkers, Sweep) fill the
// cores. Splitting one run was slower than one core at every N in the
// packet engine, and paid in the wormhole engine only for a single large
// run, which no caller makes (DESIGN §6). IntraWorkers is accepted and
// ignored.
//
// Every random draw is a pure function of (seed, cycle, entity, purpose)
// — see internal/ctrrng — so a draw's value does not depend on when it is
// made, a run's metrics are a pure function of its config, and the
// reference simulators (internal/refsim, internal/refwh) re-derive every
// decision independently.

// ModelConfig is the part of a run's configuration both engines share.
// Each engine's Config carries the same fields flat (documented there) and
// converts to it.
type ModelConfig struct {
	N            int
	Policy       Policy
	Load         float64
	Cycles       int
	Warmup       int
	Seed         int64
	Traffic      TrafficKind
	HotspotDest  int
	HotspotFrac  float64
	Perm         []int
	Switches     SwitchModel
	Blocked      *blockage.Set
	FaultRate    float64
	RepairCycles int
	IntraWorkers int
}

// Validate checks the shared fields against their documented ranges; name
// ("simulator", "wormhole") prefixes the error.
func (c ModelConfig) Validate(name string) error {
	if c.Load < 0 || c.Load > 1 {
		return fmt.Errorf("%s: load %v out of [0,1]", name, c.Load)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("%s: cycles %d < 1", name, c.Cycles)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("%s: warmup %d < 0 (a negative warmup would skew the measurement window)", name, c.Warmup)
	}
	if c.Warmup+c.Cycles >= math.MaxInt32 {
		return fmt.Errorf("%s: warmup+cycles %d overflows the cycle counter", name, c.Warmup+c.Cycles)
	}
	if c.Traffic == PermutationTraffic {
		if len(c.Perm) != c.N {
			return fmt.Errorf("%s: permutation has %d entries, want %d", name, len(c.Perm), c.N)
		}
		// Out-of-range entries used to slip through here and panic deep in
		// the delivery sweep; repeated entries silently skewed the offered
		// pattern. Require a genuine permutation of 0..N-1 up front.
		seen := make([]bool, c.N)
		for src, dst := range c.Perm {
			if dst < 0 || dst >= c.N {
				return fmt.Errorf("%s: permutation maps source %d to %d, outside [0,%d)", name, src, dst, c.N)
			}
			if seen[dst] {
				return fmt.Errorf("%s: permutation maps two sources to destination %d", name, dst)
			}
			seen[dst] = true
		}
	}
	if c.Traffic == Hotspot {
		if c.HotspotDest < 0 || c.HotspotDest >= c.N {
			return fmt.Errorf("%s: hotspot destination %d out of range", name, c.HotspotDest)
		}
		if c.HotspotFrac < 0 || c.HotspotFrac > 1 {
			return fmt.Errorf("%s: hotspot fraction %v out of [0,1]", name, c.HotspotFrac)
		}
	}
	if c.Traffic == Tornado && c.N < 4 {
		// At N=2 the pattern (src + N/2 - 1) mod N is the identity: every
		// packet targets its own source and the run measures straight-link
		// self-traffic, not an adversarial stride workload.
		return fmt.Errorf("%s: tornado traffic degenerates to self-traffic at N=%d; need N >= 4", name, c.N)
	}
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return fmt.Errorf("%s: fault rate %v out of [0,1]", name, c.FaultRate)
	}
	if c.FaultRate > 0 && c.RepairCycles < 0 {
		return fmt.Errorf("%s: repair cycles %d < 0 with fault rate %v", name, c.RepairCycles, c.FaultRate)
	}
	if c.IntraWorkers < 0 {
		return fmt.Errorf("%s: intra workers %d < 0", name, c.IntraWorkers)
	}
	return nil
}

// Draws are the draw-purpose constants of the draws the model makes on an
// engine's behalf. Each engine keeps its own (and its oracle repeats
// them), so the two engines' random streams stay disjoint.
type Draws struct {
	Load  uint64 // per-source injection Bernoulli
	Dst   uint64 // per-source uniform destination
	Hot   uint64 // per-source hotspot Bernoulli
	Fault uint64 // fault skip-chain
}

// Spec is what an engine tells its Model at construction.
type Spec struct {
	Name  string // prefix of errors and invariant panics
	Draws Draws
	// Load is AdaptiveSSDT's congestion signal, indexed by dense link: the
	// engine's own per-link occupancy (queued packets, queued flits). The
	// slice must live as long as the engine.
	Load []int32
	// Buffers is how many buffers each link has, the unit of the mean
	// occupancy.
	Buffers int
	// Step runs one cycle's deliver, stage and inject phases on the
	// calling goroutine; Check verifies the engine's per-cycle invariants
	// when they are armed.
	Step  func(cycle int, measured bool)
	Check func(cycle int)
}

// Acc is a run's accumulator set, cumulative from cycle 0. The Totals
// count the measured window, in packets and (the wormhole engine only) in
// flits; Occupied and the Ck* conservation shadows (warmup included) count
// the engine's queued unit, packets or flits.
type Acc struct {
	Totals
	Occupied               int64 // units queued now
	CkIn, CkOut, CkDropped int64
	MaxOcc                 int32 // largest buffer occupancy observed
	LatHist                []int32
}

func (a *Acc) reset() {
	lat := a.LatHist
	clear(lat)
	*a = Acc{LatHist: lat}
}

// AddLatency counts one delivered packet and its latency in cycles.
// Latencies at or beyond the last histogram bucket are clamped into it.
func (a *Acc) AddLatency(lat int) {
	a.Delivered++
	if lat >= len(a.LatHist) {
		lat = len(a.LatHist) - 1
	}
	a.LatHist[lat]++
}

// Totals are a run's packet and flit counters over the measured window.
type Totals struct {
	Injected, Delivered, Dropped, Refused       int
	FlitsInjected, FlitsDelivered, FlitsDropped int
}

// Result is the engine-independent part of a finished run's metrics. Its
// streams share storage with the Model until the next run.
type Result struct {
	Totals
	Latency         stats.Stream // cycles from injection to delivery
	MaxOcc          int          // largest buffer occupancy observed
	MeanOcc         float64      // time-average occupancy per buffer
	Throughput      float64      // packets delivered per cycle per source
	UtilStraight    stats.Stream // per-link forwards per measured cycle
	UtilNonstraight stats.Stream
}

// Model is the shared state of one configuration, embedded by value in
// each engine's sim. All per-link arrays are indexed by the dense link
// index (stage*N+from)*3 + kind, so a stage's links occupy one contiguous
// window.
type Model struct {
	P      topology.Params
	Stages int // n
	N      int // switches per stage
	L      int // 3*N*n links

	// ToOf[link] is the switch the link leads to at the next stage.
	ToOf []int32

	// SingleInput: at most one unit passes through a switch per cycle.
	SingleInput bool

	// Acc is what the engine's Step counts into.
	Acc Acc

	// Forwards[link] counts units forwarded out of the link during
	// measured cycles, the utilization numerator.
	Forwards []int32

	spec Spec
	mc   ModelConfig
	rng  ctrrng.RNG

	// staticBlocked is the snapshot of the config's blockage set; blockable
	// is true when any link can ever be unusable (static blockage or
	// transient faults), letting the ladder skip blockage checks entirely.
	staticBlocked []bool
	hasStatic     bool
	blockable     bool

	// failUntil[link] is the first cycle at which a transiently failed link
	// works again, clamped to the run horizon (Warmup+Cycles) so that it
	// fits the int32; repair is RepairCycles clamped the same way.
	// invLn1mF is 1/ln(1-FaultRate) for geometric skip-sampling (0 when
	// FaultRate >= 1: every trial hits).
	failUntil      []int32
	faulty         bool
	repair         int
	horizon        int
	invLn1mF       float64
	nextFaultTrial int64
	nowCycle       int

	// Precomputed integer Bernoulli thresholds and the uniform destination
	// mask (N is a power of two, so a masked draw is exact).
	loadT, hotT uint64
	dstMask     uint64

	// The occupancy time sum over the measured window, and its sample
	// count in buffers.
	queueSum     int64
	queueSamples int64

	lat, utilS, utilN stats.Stream

	// check snapshots the engine's invariant switch at the start of a run.
	check bool
}

// Init allocates the model of a validated config with topology p.
func (m *Model) Init(p topology.Params, mc ModelConfig, spec Spec) {
	n, N := p.Stages(), mc.N
	L := 3 * N * n
	*m = Model{
		P: p, Stages: n, N: N, L: L,
		ToOf:        make([]int32, L),
		SingleInput: mc.Switches == SingleInput,
		Forwards:    make([]int32, L),
		spec:        spec,
		mc:          mc,
		failUntil:   make([]int32, L),
		faulty:      mc.FaultRate > 0,
		horizon:     mc.Warmup + mc.Cycles,
		loadT:       ctrrng.BernoulliThreshold(mc.Load),
		hotT:        ctrrng.BernoulliThreshold(mc.HotspotFrac),
		dstMask:     uint64(N - 1),
	}
	m.repair = min(mc.RepairCycles, m.horizon)
	for idx := 0; idx < L; idx++ {
		m.ToOf[idx] = int32(topology.LinkFromIndex(p, idx).To(p))
	}
	if mc.Blocked != nil {
		m.staticBlocked = make([]bool, L)
		for idx := 0; idx < L; idx++ {
			if mc.Blocked.Blocked(topology.LinkFromIndex(p, idx)) {
				m.staticBlocked[idx] = true
				m.hasStatic = true
			}
		}
	}
	if m.faulty && mc.FaultRate < 1 {
		m.invLn1mF = 1 / math.Log(1-mc.FaultRate)
	}
	m.blockable = m.hasStatic || m.faulty
	latBuckets := min(m.horizon+1, 1<<16)
	m.Acc.LatHist = make([]int32, latBuckets)
	m.lat = stats.NewStream(1, latBuckets)
	m.utilS = stats.NewStream(1.0/1024, 1025)
	m.utilN = stats.NewStream(1.0/1024, 1025)
}

// Base returns the model an engine embeds.
func (m *Model) Base() *Model { return m }

// Rewind resets the model to cycle 0 of a run with the given seed, reusing
// every buffer; check arms the invariant checkers for the run.
func (m *Model) Rewind(seed int64, check bool) {
	m.rng = ctrrng.New(seed)
	clear(m.failUntil)
	clear(m.Forwards)
	m.Acc.reset()
	m.queueSum, m.queueSamples = 0, 0
	m.nowCycle = 0
	m.check = check
	m.lat.Reset()
	m.utilS.Reset()
	m.utilN.Reset()
	if m.faulty {
		m.nextFaultTrial = m.advanceFaultTrial(-1)
	}
}

// advanceFaultTrial walks the fault skip-chain one step: from trial
// position pos (flattened cycle*L + link; -1 before the first trial) to
// the next position whose Bernoulli(FaultRate) trial hits. Each skip draw
// is keyed by the position it starts from, so the whole chain — and
// therefore the fault pattern — is a pure function of the seed.
func (m *Model) advanceFaultTrial(pos int64) int64 {
	u := m.rng.Word(uint64(pos+1), 0, m.spec.Draws.Fault)
	return pos + ctrrng.GeometricSkipFromWord(u, m.invLn1mF)
}

// stepFaults injects and expires transient link failures for one cycle.
// Instead of one Bernoulli draw per link per cycle, the flattened
// (cycle, link) trial sequence is skip-sampled geometrically: expected
// cost is FaultRate*L per cycle rather than L. Trials landing on an
// already-failed link are discarded, which leaves every working link
// failing with exactly FaultRate per cycle. A repair due at or after the
// run horizon is stored as the horizon: the link stays failed to the end
// either way, and the cycle fits the int32.
func (m *Model) stepFaults(cycle int) {
	start := int64(cycle) * int64(m.L)
	end := start + int64(m.L)
	for m.nextFaultTrial < end {
		idx := int(m.nextFaultTrial - start)
		if int(m.failUntil[idx]) <= cycle {
			m.failUntil[idx] = int32(min(cycle+m.repair, m.horizon))
		}
		m.nextFaultTrial = m.advanceFaultTrial(m.nextFaultTrial)
	}
}

// linkBlocked reports whether a link is statically blocked or transiently
// failed right now.
func (m *Model) linkBlocked(idx int) bool {
	if m.hasStatic && m.staticBlocked[idx] {
		return true
	}
	return m.faulty && int(m.failUntil[idx]) > m.nowCycle
}

// Choose is the SSDT routing ladder: it picks the outgoing link of switch
// sw at the given stage for a unit to dst. Straight when the stage bit
// already matches; otherwise a nonstraight link chosen by the policy,
// which Theorem 3.1 makes safe, with blocked and failed links excluded.
// ok=false means no usable link exists and the unit must be dropped. The
// returned value is a dense link index. (cycle, entity, purpose) are the
// draw coordinates of the RandomState coin.
//
// The policy's pick is computed arithmetically rather than through a
// ladder of comparisons: minus is 1 when the policy takes the -2^stage
// link, and the link is base + 1 + ns*(1 - 2*minus), where ns is 1 when
// the stage bit must change. Only a picked link that is blocked costs a
// branch: a straight one drops, a nonstraight one falls to its sibling,
// which drops too when it is blocked. That equals the spelled-out ladder
// (a usable sibling of a blocked link wins, both blocked drop, both usable
// take the policy's pick) because every draw is a pure function of its
// coordinates, so a coin drawn for a unit that then takes the straight or
// the other link has no side effect. choose_test.go keeps the spelled-out
// ladder as the reference and compares the two exhaustively.
func (m *Model) Choose(stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
	base := (stage*m.N + sw) * 3
	ns := ((sw ^ dst) >> uint(stage)) & 1
	minus := (sw >> uint(stage)) & 1 // state C: even_i uses +2^i, odd_i uses -2^i
	switch m.mc.Policy {
	case AdaptiveSSDT:
		// The less loaded link, ties to state C: minus iff
		// Load[minus] - Load[plus] - cbit < 0 (minus holds cbit until
		// here), read off the sign bit.
		d := int(m.spec.Load[base]) - int(m.spec.Load[base+2]) - minus
		minus = int(uint(d) >> (bits.UintSize - 1))
	case RandomState:
		minus = int(m.rng.Word(uint64(cycle), entity, purpose) & 1) // Bit's coin: 0 takes plus
	}
	idx := base + 1 + ns*(1-2*minus)
	if m.blockable && m.linkBlocked(idx) {
		if ns == 0 {
			return 0, false
		}
		idx = 2*base + 2 - idx // the other nonstraight link
		if m.linkBlocked(idx) {
			return 0, false
		}
	}
	return idx, true
}

// Starts is the traffic source's Bernoulli(Load) draw: whether source src
// starts a packet this cycle.
func (m *Model) Starts(src, cycle int) bool {
	return m.rng.Hit(m.loadT, uint64(cycle), uint64(src), m.spec.Draws.Load)
}

// Dest draws the destination of the packet source src starts this cycle.
func (m *Model) Dest(src, cycle int) int {
	c, e := uint64(cycle), uint64(src)
	switch m.mc.Traffic {
	case Uniform: // the common case, tested first
	case Hotspot:
		if m.rng.Hit(m.hotT, c, e, m.spec.Draws.Hot) {
			return m.mc.HotspotDest
		}
	case PermutationTraffic:
		return m.mc.Perm[src]
	case BitComplementTraffic:
		return m.N - 1 - src
	case Tornado:
		return (src + m.N/2 - 1) % m.N
	}
	return m.rng.Intn(m.dstMask, c, e, m.spec.Draws.Dst)
}

// run executes the configured cycles; Finish then derives the metrics.
func (m *Model) run() {
	for cycle := 0; cycle < m.horizon; cycle++ {
		measured := cycle >= m.mc.Warmup
		m.nowCycle = cycle
		if m.faulty {
			m.stepFaults(cycle)
		}
		m.spec.Step(cycle, measured)
		if measured {
			m.queueSum += m.Acc.Occupied
			m.queueSamples += int64(m.L) * int64(m.spec.Buffers)
		}
		if m.check {
			m.spec.Check(cycle)
		}
	}
}

// detachStreams leaves the streams of the last Finish to the metrics that
// hold them: the model continues with clones, so its next run cannot
// overwrite a result already handed out.
func (m *Model) detachStreams() {
	m.lat, m.utilS, m.utilN = m.lat.Clone(), m.utilS.Clone(), m.utilN.Clone()
}

// Finish derives the run-level metrics from the accumulators. The streams
// share storage with the model until the next run.
func (m *Model) Finish() Result {
	r := Result{Totals: m.Acc.Totals, MaxOcc: int(m.Acc.MaxOcc)}
	r.Throughput = float64(r.Delivered) / float64(m.mc.Cycles) / float64(m.N)
	if m.queueSamples > 0 {
		r.MeanOcc = float64(m.queueSum) / float64(m.queueSamples)
	}
	for v, c := range m.Acc.LatHist {
		m.lat.AddN(float64(v), int(c))
	}
	if m.check {
		m.checkLatencyMass()
	}
	for idx := 0; idx < m.L; idx++ {
		util := float64(m.Forwards[idx]) / float64(m.mc.Cycles)
		if idx%3 != 1 { // kinds are Minus(0), Straight(1), Plus(2)
			m.utilN.Add(util)
		} else {
			m.utilS.Add(util)
		}
	}
	r.Latency, r.UtilStraight, r.UtilNonstraight = m.lat, m.utilS, m.utilN
	return r
}
