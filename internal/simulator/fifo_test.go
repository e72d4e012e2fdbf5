package simulator

import (
	"math/rand"
	"testing"
)

// checkFIFOTape drives one fifos instance with an operation tape and
// checks it against a reference slice-of-slices model: same contents, same
// pop order, same rejection behaviour at capacity, and the occupancy bit
// set iff the queue is nonempty. Each op byte names
// a queue in its low seven bits and a push (high bit clear) or a front
// then pop (set), as the advance loop does.
func checkFIFOTape(t *testing.T, links, capacity int, ops []byte) {
	t.Helper()
	q := newFIFOs(links, capacity)
	ref := make([][]packet, links)
	checkOcc := func(step, i int) {
		t.Helper()
		occBit := q.occ[i>>6]>>(uint(i)&63)&1 == 1
		if want := len(ref[i]) > 0; occBit != want {
			t.Fatalf("step %d: occ bit for %d is %v with %d queued", step, i, occBit, len(ref[i]))
		}
	}
	for step, op := range ops {
		i := int(op&0x7f) % links
		if op&0x80 == 0 {
			pk := packet{dst: int32(step), born: int32(i)}
			ln, ok := q.push(i, pk)
			wantOK := len(ref[i]) < capacity
			if ok != wantOK {
				t.Fatalf("step %d: push(%d) ok=%v, want %v", step, i, ok, wantOK)
			}
			if ok {
				ref[i] = append(ref[i], pk)
				if int(ln) != len(ref[i]) {
					t.Fatalf("step %d: push(%d) occupancy %d, want %d", step, i, ln, len(ref[i]))
				}
			} else if int(ln) != capacity {
				t.Fatalf("step %d: full push(%d) occupancy %d, want %d", step, i, ln, capacity)
			}
		} else if len(ref[i]) > 0 {
			if got, want := q.front(i), ref[i][0]; got != want {
				t.Fatalf("step %d: front(%d) = %+v, want %+v", step, i, got, want)
			}
			if got, want := q.pop(i), ref[i][0]; got != want {
				t.Fatalf("step %d: pop(%d) = %+v, want %+v", step, i, got, want)
			}
			ref[i] = ref[i][1:]
		}
		if got, want := q.size[i], int32(len(ref[i])); got != want {
			t.Fatalf("step %d: len(%d) = %d, want %d", step, i, got, want)
		}
		checkOcc(step, i)
	}
	// Drain everything and verify full FIFO order and a clean bitset.
	for i := range ref {
		for len(ref[i]) > 0 {
			if got, want := q.pop(i), ref[i][0]; got != want {
				t.Fatalf("drain: pop(%d) = %+v, want %+v", i, got, want)
			}
			ref[i] = ref[i][1:]
		}
	}
	for w, word := range q.occ {
		if word != 0 {
			t.Fatalf("drained bitset word %d = %#x, want 0", w, word)
		}
	}
}

// FuzzRingQueue drives the per-link FIFOs with an arbitrary operation tape
// against the slice model.
func FuzzRingQueue(f *testing.F) {
	f.Add(2, 3, []byte{0, 1, 2, 0x80, 0x81, 0, 0x80})
	f.Add(1, 1, []byte{0, 0, 0x80, 0x80})
	f.Add(70, 2, []byte{0, 65, 69, 0x80, 0xC1})
	f.Fuzz(func(t *testing.T, links, capacity int, ops []byte) {
		if links < 1 || links > 128 || capacity < 1 || capacity > 64 {
			t.Skip()
		}
		checkFIFOTape(t, links, capacity, ops)
	})
}

// TestFIFOsMatchSliceModel runs random tapes at the capacities the shift
// in pop must handle: 1 (nothing to shift), the small caps the simulator
// runs at, an odd one, and a large one that fills its queues. Pushes
// outnumber pops three to one on half of each tape so queues reach and
// stay at capacity, and pops dominate the other half to drain them.
func TestFIFOsMatchSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 4, 7, 64} {
		for _, links := range []int{1, 3, 70} {
			ops := make([]byte, 40*capacity*links)
			for j := range ops {
				pushShare := 3
				if j >= len(ops)/2 {
					pushShare = 1
				}
				op := byte(rng.Intn(links))
				if rng.Intn(pushShare+1) == 0 {
					op |= 0x80
				}
				ops[j] = op
			}
			checkFIFOTape(t, links, capacity, ops)
		}
	}
}

// TestRingQueueReset checks that reset restores the empty state.
func TestRingQueueReset(t *testing.T) {
	q := newFIFOs(5, 3)
	for i := 0; i < 5; i++ {
		q.push(i, packet{dst: int32(i)})
	}
	q.reset()
	for i := 0; i < 5; i++ {
		if q.size[i] != 0 {
			t.Errorf("after reset, len(%d) = %d", i, q.size[i])
		}
	}
	for w, word := range q.occ {
		if word != 0 {
			t.Errorf("after reset, occ[%d] = %#x", w, word)
		}
	}
	// The queues must be usable again.
	q.push(2, packet{dst: 9})
	if q.pop(2) != (packet{dst: 9}) {
		t.Error("push/pop after reset broken")
	}
}
