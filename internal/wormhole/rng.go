package wormhole

// The wormhole mode draws from the same counter-based generator as the
// packet simulator (internal/ctrrng): every draw is a pure function of
// (seed, cycle, entity, purpose), so a draw's value does not depend on
// evaluation order, which lets the internal/refwh oracle re-derive every
// decision independently.
//
// The purpose constants are fresh, disjoint from the packet simulator's,
// so a wormhole run and a packet run on the same seed are statistically
// independent. Entities: the source index for injection-side draws, the
// dense lane index (link*Lanes + lane) for in-flight head routing.

// Draw-purpose domain separators. Arbitrary odd 64-bit constants; the
// values are part of the refwh RNG contract and are repeated there.
const (
	drawWhLoad     = 0x9b1f3a6d25c7e84b // per-source packet-start Bernoulli
	drawWhDst      = 0x6e3c89a5d1f0b72d // per-source uniform destination
	drawWhHot      = 0xc4a7e1925f36d80b // per-source hotspot Bernoulli
	drawWhRoute    = 0x71d5bc0e9a248f63 // per-lane random-state choice for in-flight heads
	drawWhRouteInj = 0x3f82d64b17c9ae05 // per-source random-state choice at injection
	drawWhFault    = 0xe59a3d7c61b08f27 // fault skip-chain (wormhole engine only)
)
