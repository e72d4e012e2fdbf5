package routesvc

import (
	"sync"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// cacheKey identifies one cached TSDT/REROUTE tag: tags are per (src,
// dst). SSDT tags are never cached — by Theorem 3.1 the destination
// address is the tag, so the Service renders it in place.
type cacheKey struct {
	src, dst int32
}

// hash spreads keys with a murmur3-style finalizer. The low bits select
// the shard and the high bits the home slot inside it, so shard selection
// never correlates with probe position.
func (k cacheKey) hash() uint64 {
	h := uint64(uint32(k.src))<<33 ^ uint64(uint32(k.dst))<<1
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// defaultShards is the shard count used when Config.Shards is 0: enough
// that 16 cores rarely collide, small enough to be noise at N=2.
const defaultShards = 64

// minSlots is the smallest per-shard table; power of two.
const minSlots = 64

// Growth threshold: a shard grows when it would exceed 13/16 occupancy
// (~0.81), which keeps linear-probe chains short while wasting less than a
// quarter of the slab.
const loadNum, loadDen = 13, 16

// slotLayout describes how one cache entry packs into the slab. Every
// entry is key + state bits + epoch stamp; the destination bits of the tag
// are never stored because they equal the dst key (REROUTE preserves the
// destination), and the tag is reassembled on hit with core.TagFromState.
//
// Compact layout (stages n <= 15, i.e. N <= 32768): one uint64 per slot —
//
//	bit 0          occupied
//	bits 1..       src (n bits)
//	..             dst (n bits)
//	..             tag state bits (n bits)
//	top 64-1-3n    epoch stamp (>= 18 bits)
//
// Wide layout (n >= 16): two uint64 per slot —
//
//	w0: bit 0 occupied | src << 1 (31 bits) | dst << 32
//	w1: tag state bits (low 32) | epoch stamp << 32
//
// Epoch stamps are truncated to the layout's epoch field. A lookup hits
// only when the stored stamp equals the caller's epoch modulo 2^epochBits,
// so a stale entry can alias a live one only after 2^epochBits epoch bumps
// land between sweeps; the service forces a sweep at least every
// aliasSweepInterval (< 2^17) bumps, making truncation unobservable.
type slotLayout struct {
	p    topology.Params
	n    uint
	wide bool
	// Compact-layout geometry (unused when wide).
	dstShift   uint
	stateShift uint
	epShift    uint
	keyMask    uint64
	fieldMask  uint64 // n low bits
	epMask     uint64 // epoch stamp mask (applies to both layouts)
}

// minEpochBits is the smallest acceptable compact epoch field. With the
// forced alias sweep every 2^16 bumps, 17 bits guarantees a full sweep
// strictly inside every stamp period.
const minEpochBits = 17

func newSlotLayout(p topology.Params) slotLayout {
	n := uint(p.Stages())
	l := slotLayout{p: p, n: n, fieldMask: 1<<n - 1}
	if 1+3*n+minEpochBits <= 64 {
		l.dstShift = 1 + n
		l.stateShift = 1 + 2*n
		l.epShift = 1 + 3*n
		l.keyMask = 1<<l.stateShift - 1
		l.epMask = 1<<(64-l.epShift) - 1
	} else {
		l.wide = true
		l.epMask = 1<<32 - 1
	}
	return l
}

// stride is the slot width in uint64 words.
func (l *slotLayout) stride() int {
	if l.wide {
		return 2
	}
	return 1
}

// keyWord encodes the key (with the occupied bit set) as it appears in the
// slot's first word, excluding state/epoch fields.
func (l *slotLayout) keyWord(k cacheKey) uint64 {
	if l.wide {
		return 1 | uint64(uint32(k.src))<<1 | uint64(uint32(k.dst))<<32
	}
	return 1 | uint64(uint32(k.src))<<1 | uint64(uint32(k.dst))<<l.dstShift
}

// decodeKey is keyWord's inverse, used by rehash and sweep.
func (l *slotLayout) decodeKey(w0 uint64) cacheKey {
	if l.wide {
		return cacheKey{src: int32(w0 >> 1 & (1<<31 - 1)), dst: int32(w0 >> 32)}
	}
	return cacheKey{src: int32(w0 >> 1 & l.fieldMask), dst: int32(w0 >> l.dstShift & l.fieldMask)}
}

// tagCache is a sharded epoch-stamped TSDT tag cache over flat
// open-addressing tables. Each shard is an RWMutex-guarded linear-probing slab of packed
// uint64 slots — no per-entry allocation, no pointers for the GC to scan,
// and a per-route footprint of one or two words against the ~59 bytes the
// previous map[cacheKey]cacheEntry version spent.
//
// Entries are stamped with the blockage-map epoch current when their tag
// was computed; a lookup at a newer epoch misses (the entry "dies" lazily —
// a fault or repair invalidates every stale entry by bumping the epoch,
// with no flush on the mutation path).
type tagCache struct {
	mask   uint64
	layout slotLayout
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.RWMutex
	slots    []uint64 // capacity * stride words
	slotMask uint64   // capacity - 1
	used     int
}

func newTagCache(shards int, p topology.Params) *tagCache {
	if shards <= 0 {
		shards = defaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &tagCache{mask: uint64(n - 1), layout: newSlotLayout(p), shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i].reset(minSlots, c.layout.stride())
	}
	return c
}

func (sh *cacheShard) reset(capacity int, stride int) {
	sh.slots = make([]uint64, capacity*stride)
	sh.slotMask = uint64(capacity - 1)
	sh.used = 0
}

// get returns the cached tag for k if present and not stale at the given
// epoch. It allocates nothing.
func (c *tagCache) get(k cacheKey, epoch uint64) (core.Tag, bool) {
	h := k.hash()
	sh := &c.shards[h&c.mask]
	l := &c.layout
	kw := l.keyWord(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	idx := h >> 32 & sh.slotMask
	if l.wide {
		for {
			w0 := sh.slots[idx*2]
			if w0&1 == 0 {
				return core.Tag{}, false
			}
			if w0 == kw {
				w1 := sh.slots[idx*2+1]
				if w1>>32 != epoch&l.epMask {
					return core.Tag{}, false
				}
				return core.TagFromState(l.p, int(k.dst), w1&(1<<32-1)), true
			}
			idx = (idx + 1) & sh.slotMask
		}
	}
	for {
		w := sh.slots[idx]
		if w&1 == 0 {
			return core.Tag{}, false
		}
		if w&l.keyMask == kw {
			if w>>l.epShift != epoch&l.epMask {
				return core.Tag{}, false
			}
			return core.TagFromState(l.p, int(k.dst), w>>l.stateShift&l.fieldMask), true
		}
		idx = (idx + 1) & sh.slotMask
	}
}

// put stores the tag computed at the given epoch, overwriting any stale
// entry for the same key. Only the tag's state bits are stored; its
// destination bits are implied by the key.
func (c *tagCache) put(k cacheKey, tag core.Tag, epoch uint64) {
	h := k.hash()
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	c.putLocked(sh, k, h, tag.StateBits(), epoch)
	sh.mu.Unlock()
}

func (c *tagCache) putLocked(sh *cacheShard, k cacheKey, h uint64, state, epoch uint64) {
	l := &c.layout
	kw := l.keyWord(k)
	stride := l.stride()
	idx := h >> 32 & sh.slotMask
	for {
		w0 := sh.slots[idx*uint64(stride)]
		if w0&1 == 0 {
			break // empty: insert here (or after growing)
		}
		match := w0 == kw
		if !l.wide {
			match = w0&l.keyMask == kw
		}
		if match {
			// Same key: overwrite state and stamp in place.
			c.writeSlot(sh, idx, kw, state, epoch)
			return
		}
		idx = (idx + 1) & sh.slotMask
	}
	if (sh.used+1)*loadDen > int(sh.slotMask+1)*loadNum {
		c.growLocked(sh)
		// Re-probe in the doubled table for the insertion point.
		idx = h >> 32 & sh.slotMask
		for sh.slots[idx*uint64(stride)]&1 != 0 {
			idx = (idx + 1) & sh.slotMask
		}
	}
	c.writeSlot(sh, idx, kw, state, epoch)
	sh.used++
}

// writeSlot packs one entry into slot idx.
func (c *tagCache) writeSlot(sh *cacheShard, idx uint64, kw, state, epoch uint64) {
	l := &c.layout
	if l.wide {
		sh.slots[idx*2] = kw
		sh.slots[idx*2+1] = state&(1<<32-1) | (epoch&l.epMask)<<32
		return
	}
	sh.slots[idx] = kw | state<<l.stateShift | (epoch&l.epMask)<<l.epShift
}

// growLocked doubles the shard's capacity and re-inserts every entry
// (stamps preserved verbatim).
func (c *tagCache) growLocked(sh *cacheShard) {
	old := sh.slots
	oldCap := int(sh.slotMask + 1)
	stride := c.layout.stride()
	used := sh.used
	sh.reset(oldCap*2, stride)
	c.reinsert(sh, old, stride)
	sh.used = used
}

// reinsert rehashes every occupied slot of an old slab into sh. It does
// not touch sh.used; callers account for it.
func (c *tagCache) reinsert(sh *cacheShard, old []uint64, stride int) {
	l := &c.layout
	for i := 0; i < len(old); i += stride {
		w0 := old[i]
		if w0&1 == 0 {
			continue
		}
		k := l.decodeKey(w0)
		idx := k.hash() >> 32 & sh.slotMask
		for sh.slots[idx*uint64(stride)]&1 != 0 {
			idx = (idx + 1) & sh.slotMask
		}
		if l.wide {
			sh.slots[idx*2] = w0
			sh.slots[idx*2+1] = old[i+1]
		} else {
			sh.slots[idx] = w0
		}
	}
}

// slotStamp extracts the epoch stamp of the occupied slot at word offset i.
func (l *slotLayout) slotStamp(slots []uint64, i int) uint64 {
	if l.wide {
		return slots[i+1] >> 32
	}
	return slots[i] >> l.epShift
}

// snapshot counts live and stale entries at the given epoch (an entry is
// live only when its stamp matches) and sums the slab footprint in ONE
// pass: each shard's entry split and slab bytes are read under the same
// lock hold, so the entries a scrape counts and the bytes it attributes
// to them can never straddle a concurrent sweep's shard rebuild (which
// could report fewer slab bytes than one word per counted entry, i.e. an
// impossible bits/route). Shards are scanned one at a time; the guarantee
// is per-shard pairing, which is what the footprint arithmetic needs.
func (c *tagCache) snapshot(epoch uint64) (live, stale int, bytes uint64) {
	l := &c.layout
	stride := l.stride()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		bytes += uint64(len(sh.slots)) * 8
		for w := 0; w < len(sh.slots); w += stride {
			if sh.slots[w]&1 == 0 {
				continue
			}
			if l.slotStamp(sh.slots, w) == epoch&l.epMask {
				live++
			} else {
				stale++
			}
		}
		sh.mu.RUnlock()
	}
	return live, stale, bytes
}

// sweep drops every entry stale at the given epoch and returns how many it
// removed. Each shard is
// rebuilt into a fresh slab sized for its surviving entries, so sweeping
// also returns slab memory after fault churn — the map version could only
// delete keys. Correctness never needs sweep (stale entries already miss);
// it reclaims memory and, run at least once per epoch-stamp period,
// guarantees truncated stamps never alias (see slotLayout).
func (c *tagCache) sweep(epoch uint64) int {
	l := &c.layout
	stride := l.stride()
	stamp := epoch & l.epMask
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		kept := 0
		dropped := 0
		for w := 0; w < len(sh.slots); w += stride {
			if sh.slots[w]&1 == 0 {
				continue
			}
			if l.slotStamp(sh.slots, w) == stamp {
				kept++
			} else {
				sh.slots[w] = 0 // clear so reinsert skips it
				if l.wide {
					sh.slots[w+1] = 0
				}
				dropped++
			}
		}
		if dropped > 0 {
			// Rebuild into the smallest power-of-two slab that holds the
			// survivors under the load threshold: clearing slots in place
			// would break probe chains, and rebuilding is what returns
			// memory after fault churn.
			capacity := minSlots
			for kept*loadDen > capacity*loadNum {
				capacity <<= 1
			}
			old := sh.slots
			sh.reset(capacity, stride)
			c.reinsert(sh, old, stride)
			sh.used = kept
			removed += dropped
		}
		sh.mu.Unlock()
	}
	return removed
}
