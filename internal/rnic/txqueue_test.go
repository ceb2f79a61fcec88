package rnic

import (
	"testing"

	"repro/internal/rng"
)

// TestTxQueueMatchesSlice drives the engine's ring buffer and a plain
// slice with the same random pushes, head pops and middle removals (the
// reordering engine's), through wrap-around and growth, and checks after
// every step that both hold the same entries in the same order and that
// no free slot pins a recycled packet.
func TestTxQueueMatchesSlice(t *testing.T) {
	var q txQueue
	var ref []*txPacket
	src := rng.New(7)
	for step := 0; step < 20000; step++ {
		switch r := src.Intn(20); {
		case r < 11 || len(ref) == 0:
			tx := &txPacket{}
			q.push(tx)
			ref = append(ref, tx)
		case r < 17:
			q.remove(0)
			ref = ref[1:]
		default:
			i := src.Intn(len(ref))
			q.remove(i)
			ref = append(ref[:i:i], ref[i+1:]...)
		}
		if q.n != len(ref) {
			t.Fatalf("step %d: ring holds %d entries, want %d", step, q.n, len(ref))
		}
		for i, tx := range ref {
			if q.at(i) != tx {
				t.Fatalf("step %d: entry %d differs", step, i)
			}
		}
		if len(q.buf)&(len(q.buf)-1) != 0 {
			t.Fatalf("step %d: capacity %d is not a power of two", step, len(q.buf))
		}
		for k, tx := range q.buf {
			if (k-q.head)&(len(q.buf)-1) >= q.n && tx != nil {
				t.Fatalf("step %d: free slot %d still references a packet", step, k)
			}
		}
	}
}
