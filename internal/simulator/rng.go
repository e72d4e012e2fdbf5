package simulator

// The simulator's randomness is the counter-based generator of
// internal/ctrrng: every draw is a pure function of (seed, cycle, entity,
// purpose), which is what makes the sharded engine bit-identical to the
// sequential one for every worker count.
//
// The entity is the dense link index for in-flight routing draws and the
// source index for injection-side draws; the purpose constants below keep
// those two id spaces (and every draw site) in disjoint hash domains.
// internal/refsim draws with the same constants from its own coordinates,
// which is what keeps the differential oracle exact on fault-free configs
// regardless of evaluation order.

// Draw-purpose domain separators. Arbitrary odd 64-bit constants; the
// values are part of the refsim RNG contract and are repeated there.
const (
	drawLoad      = 0xa0761d6478bd642f // per-source injection Bernoulli
	drawDst       = 0xe7037ed1a0b428db // per-source uniform destination
	drawHot       = 0x8ebc6af09c88c6e3 // per-source hotspot Bernoulli
	drawRoute     = 0x589965cc75374cc3 // per-incoming-link random-state choice
	drawRouteInj  = 0x1d8e4e27c47d124f // per-source random-state choice at stage 0
	drawBurst     = 0xeb44accab455d165 // per-source on/off sojourn Bernoulli
	drawBurstInit = 0x2f9be6cc5be4f095 // per-source initial burst state
	drawFaultSkip = 0x9e6c63d0a161fe15 // fault skip-chain (simulator only)
)
