package simulator

// fifos is the per-link FIFO storage of the simulator: one flat
// preallocated buffer holding every link's queue in a fixed-stride window
// whose front is always slot 0. push writes slot size, front reads slot 0,
// and pop shifts the remaining size-1 packets down one slot. At the
// occupancies the simulator runs at (a fraction of a packet per link on
// average, QueueCap 4) the shift moves no packet at all, so every front
// and push is one load or store at an address computed from the link
// index alone, with no per-queue head cursor to load first.
//
// occ mirrors the queues as a bitset (bit i set iff queue i is nonempty),
// so the per-cycle stage sweeps visit only occupied links instead of
// scanning all 3*N*n of them.
type fifos struct {
	buf  []packet // len = links * cap; queue q occupies buf[q*cap : (q+1)*cap]
	size []int32  // per-queue occupancy
	occ  []uint64 // nonempty-queue bitset, one bit per queue
	cap  int32    // stride (QueueCap)
}

func newFIFOs(links, capacity int) fifos {
	return fifos{
		buf:  make([]packet, links*capacity),
		size: make([]int32, links),
		occ:  make([]uint64, (links+63)/64),
		cap:  int32(capacity),
	}
}

// reset empties every queue without touching the packet storage.
func (q *fifos) reset() {
	clear(q.size)
	clear(q.occ)
}

// push appends pk to queue i, reporting false (and storing nothing) when
// the queue is at capacity. On success it returns the new occupancy.
func (q *fifos) push(i int, pk packet) (int32, bool) {
	n := q.size[i]
	if n >= q.cap {
		return n, false
	}
	q.buf[int32(i)*q.cap+n] = pk
	q.size[i] = n + 1
	if n == 0 {
		q.occ[i>>6] |= 1 << uint(i&63)
	}
	return n + 1, true
}

// front returns the head packet of queue i; the queue must be non-empty.
func (q *fifos) front(i int) packet {
	return q.buf[int32(i)*q.cap]
}

// pop removes and returns the head packet of queue i; the queue must be
// non-empty.
func (q *fifos) pop(i int) packet {
	base := int32(i) * q.cap
	pk := q.buf[base]
	n := q.size[i] - 1
	q.size[i] = n
	if n == 0 {
		q.occ[i>>6] &^= 1 << uint(i&63)
	} else {
		copy(q.buf[base:], q.buf[base+1:base+1+n])
	}
	return pk
}
