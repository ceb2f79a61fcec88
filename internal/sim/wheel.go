package sim

// The hierarchical timing wheel that backs Engine's calendar.
//
// A heap pays O(log n) per operation no matter where an event lands. But
// nearly every delay this simulator schedules — link propagation,
// serialization of an MTU at tens of Gb/s, credit-return latency, engine
// occupancy — falls within a few microseconds of now. The wheel exploits
// that: time is quantized into 2^tickBits-picosecond ticks, and each of
// numLevels wheel levels holds numBuckets buckets of geometrically
// coarsening span. Scheduling, canceling and rescheduling an event within
// the wheel's horizon is O(1); only events beyond the horizon (measurement
// deadlines, idle-period timers) fall through to a far-future 4-ary heap
// (eventQueue, the previous calendar, retained both as the overflow
// structure and as the benchmark baseline in queue_bench_test.go).
//
// # Determinism
//
// The engine's contract — events pop in strict (time, seq) order, FIFO
// among ties — is preserved exactly:
//
//   - Buckets are unordered sets; order within a bucket is established only
//     when the bucket is drained, by sorting on (at, seq). Since seq is
//     unique, the sort has a single total order regardless of the bucket's
//     physical layout (which cancel's swap-remove perturbs).
//   - The drain buffer holds the sorted events of the tick currently being
//     served. New events landing at or before the current tick insert into
//     it at their (at, seq) position, so a handler scheduling "now" events
//     interleaves with already-extracted same-tick events correctly.
//
// # Level layout
//
// With tickBits=16 and levelBits=6: level 0 buckets span one 65.5 ns tick
// (horizon 4.2 us), level 1 buckets span 64 ticks (horizon 268 us), level 2
// buckets span 4096 ticks (horizon 17.2 ms). An event goes to the first
// level whose bucket distance from the current tick fits; as the current
// tick advances into an upper-level bucket, that bucket cascades: its
// events redistribute into lower levels (each event cascades at most once
// per level, so the amortized cost stays O(1) per event).
//
// curTick may run ahead of the engine clock: RunUntil peeks at the next
// event, which settles the wheel onto that event's tick even when the
// deadline then stops the run short of it. Events subsequently scheduled
// between the clock and curTick are inserted into the (sorted) drain
// buffer, which is always served before the wheel advances again.

import (
	"math/bits"

	"repro/internal/units"
)

const (
	// tickBits sets the level-0 tick: 2^16 ps = 65.536 ns.
	tickBits = 16
	// levelBits sets the buckets per level: 64, one occupancy word each.
	levelBits  = 6
	numBuckets = 1 << levelBits
	bucketMask = numBuckets - 1
	numLevels  = 3

	// Event location codes carried in Event.lvl. Values 0..numLevels-1 are
	// wheel levels.
	locDrain = int8(numLevels)     // in the sorted drain buffer
	locFar   = int8(numLevels + 1) // in the far-future heap
)

// wheel is the calendar: three wheel levels, the drain buffer of the tick
// being served, and the far-future overflow heap.
type wheel struct {
	// curTick is the tick the drain buffer belongs to. All events stored in
	// wheel buckets or the far heap have tick >= curTick; events at or
	// before curTick live in the drain buffer.
	curTick int64
	levels  [numLevels][numBuckets][]*Event
	occ     [numLevels]uint64 // bit b set iff levels[l][b] is non-empty
	// drain holds the sorted (at, seq) events being served; entries before
	// drainHead have already popped. Storage is reused across ticks.
	drain     []*Event
	drainHead int
	far       eventQueue
	count     int
}

func tickOf(at int64) int64 { return at >> tickBits }

func (w *wheel) len() int { return w.count }

// push inserts a newly scheduled event. The engine has already filled
// ev.at and ev.seq (seq strictly larger than every live event's).
func (w *wheel) push(ev *Event) {
	w.count++
	w.insert(ev)
}

func (w *wheel) insert(ev *Event) {
	tick := tickOf(int64(ev.at))
	if tick < w.curTick || (tick == w.curTick && w.drainHead < len(w.drain)) {
		// At or before the tick being served: order against the already
		// extracted events of that tick (and, when curTick ran ahead of the
		// clock, against the future events the peek settled onto).
		w.drainInsert(ev)
		return
	}
	w.place(ev, tick)
}

// place stores ev in the first level whose bucket distance from curTick
// fits, or the far heap. Requires tick >= curTick.
func (w *wheel) place(ev *Event, tick int64) {
	if d := tick - w.curTick; d < numBuckets {
		w.bucketPush(0, int(tick&bucketMask), ev)
	} else if d1 := (tick >> levelBits) - (w.curTick >> levelBits); d1 < numBuckets {
		w.bucketPush(1, int((tick>>levelBits)&bucketMask), ev)
	} else if d2 := (tick >> (2 * levelBits)) - (w.curTick >> (2 * levelBits)); d2 < numBuckets {
		w.bucketPush(2, int((tick>>(2*levelBits))&bucketMask), ev)
	} else {
		ev.lvl = locFar
		w.far.push(ev)
	}
}

func (w *wheel) bucketPush(lvl, bkt int, ev *Event) {
	b := &w.levels[lvl][bkt]
	ev.lvl = int8(lvl)
	ev.bkt = int16(bkt)
	ev.index = len(*b)
	*b = append(*b, ev)
	w.occ[lvl] |= 1 << uint(bkt)
}

// remove deletes a pending event (cancel, or the first half of a move).
func (w *wheel) remove(ev *Event) {
	w.count--
	w.unlink(ev)
	ev.index = -1
}

func (w *wheel) unlink(ev *Event) {
	switch ev.lvl {
	case locDrain:
		w.drainRemove(ev)
	case locFar:
		w.far.remove(ev.index)
	default:
		b := &w.levels[ev.lvl][ev.bkt]
		n := len(*b) - 1
		last := (*b)[n]
		(*b)[n] = nil
		*b = (*b)[:n]
		if ev.index < n {
			// Buckets are unordered until drained, so swap-remove is safe.
			(*b)[ev.index] = last
			last.index = ev.index
		}
		if n == 0 {
			w.occ[ev.lvl] &^= 1 << uint(ev.bkt)
		}
	}
}

// move re-keys ev to (at, seq) and re-files it — Reschedule's backend. The
// hot wake pattern moves an event by less than a bucket span, in which case
// nothing needs to be re-filed at all. A drain entry is located by its
// (at, seq) key, so it is unlinked under the old key before the overwrite.
func (w *wheel) move(ev *Event, at units.Time, seq uint64) {
	if ev.lvl == locDrain {
		w.drainRemove(ev)
		ev.at, ev.seq = at, seq
		w.insert(ev)
		return
	}
	ev.at, ev.seq = at, seq
	tick := tickOf(int64(at))
	if lvl := ev.lvl; lvl >= 0 && lvl < numLevels {
		shift := uint(lvl) * levelBits
		if int((tick>>shift)&bucketMask) == int(ev.bkt) && w.fits(int(lvl), tick) {
			return // same unordered bucket: at/seq updates suffice
		}
	}
	w.unlink(ev)
	w.insert(ev)
}

// fits reports whether tick still maps to the given wheel level.
func (w *wheel) fits(lvl int, tick int64) bool {
	if tick < w.curTick {
		return false
	}
	switch lvl {
	case 0:
		return tick-w.curTick < numBuckets
	case 1:
		return tick-w.curTick >= numBuckets &&
			(tick>>levelBits)-(w.curTick>>levelBits) < numBuckets
	default:
		return (tick>>levelBits)-(w.curTick>>levelBits) >= numBuckets &&
			(tick>>(2*levelBits))-(w.curTick>>(2*levelBits)) < numBuckets
	}
}

// min returns the earliest pending event without removing it. It may
// advance curTick (see the package comment on peeking ahead).
func (w *wheel) min() *Event {
	if w.drainHead >= len(w.drain) {
		w.settle()
	}
	return w.drain[w.drainHead]
}

// pop removes and returns the earliest pending event.
func (w *wheel) pop() *Event {
	if w.drainHead >= len(w.drain) {
		w.settle()
	}
	ev := w.drain[w.drainHead]
	w.drain[w.drainHead] = nil
	w.drainHead++
	if w.drainHead == len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0
	}
	ev.index = -1
	w.count--
	return ev
}

// settle ensures the drain buffer holds the next pending event, advancing
// the wheel as needed. The caller guarantees count > 0.
//
// Advancement is strictly boundary-respecting: before any level-0 event
// beyond a level-1 boundary is served, the entered level-1 bucket cascades
// (and likewise for level-2 boundaries), so an upper-level bucket covering
// curTick is always empty — the invariant that makes "nearest occupied
// lower-level bucket" the true minimum. The far heap is checked every
// iteration: events the advancing level-2 horizon now covers move into the
// wheels before any serving decision. (Far events are strictly later than
// every wheel event at equal curTick, so this check is what keeps the heap
// from hiding an earlier event.)
func (w *wheel) settle() {
	for w.drainHead >= len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0

		// Pull far-future events the level-2 horizon has reached.
		for w.far.len() > 0 {
			m := w.far.min()
			if (tickOf(int64(m.at))>>(2*levelBits))-(w.curTick>>(2*levelBits)) >= numBuckets {
				break
			}
			ev := w.far.pop()
			w.place(ev, tickOf(int64(ev.at)))
		}

		if w.occ[0] != 0 {
			p := int(w.curTick & bucketMask)
			idx := nearestBucket(w.occ[0], p)
			t := w.curTick + int64((idx-p)&bucketMask)
			if t>>levelBits == w.curTick>>levelBits {
				w.curTick = t
				w.drainBucket(idx)
				return
			}
			// The nearest level-0 event lies past a level-1 boundary: cross
			// the boundary (merging the entered bucket) before serving it.
		}
		if w.occ[0] != 0 || w.occ[1] != 0 {
			n1 := ((w.curTick >> levelBits) + 1) << levelBits
			if w.occ[0] == 0 {
				// Nothing before the nearest occupied level-1 bucket: jump
				// straight to its start. (Distance 0 cannot occur — the
				// bucket covering curTick cascaded when curTick entered it.)
				p1 := int((w.curTick >> levelBits) & bucketMask)
				d1 := int64((nearestBucket(w.occ[1], p1) - p1) & bucketMask)
				if start := ((w.curTick >> levelBits) + d1) << levelBits; start > n1 {
					n1 = start
				}
			}
			if n1>>(2*levelBits) == w.curTick>>(2*levelBits) {
				w.curTick = n1
				if i := int((n1 >> levelBits) & bucketMask); w.occ[1]&(1<<uint(i)) != 0 {
					w.cascadeBucket(1, i)
				}
				continue
			}
			// A level-2 boundary is in the way: fall through to cross it.
		}
		if w.occ[0] != 0 || w.occ[1] != 0 || w.occ[2] != 0 {
			n2 := ((w.curTick >> (2 * levelBits)) + 1) << (2 * levelBits)
			if w.occ[0] == 0 && w.occ[1] == 0 {
				p2 := int((w.curTick >> (2 * levelBits)) & bucketMask)
				d2 := int64((nearestBucket(w.occ[2], p2) - p2) & bucketMask)
				if start := ((w.curTick >> (2 * levelBits)) + d2) << (2 * levelBits); start > n2 {
					n2 = start
				}
			}
			w.curTick = n2
			if i := int((n2 >> (2 * levelBits)) & bucketMask); w.occ[2]&(1<<uint(i)) != 0 {
				w.cascadeBucket(2, i)
			}
			if i := int((n2 >> levelBits) & bucketMask); w.occ[1]&(1<<uint(i)) != 0 {
				w.cascadeBucket(1, i)
			}
			continue
		}
		// Wheels empty: jump to the far minimum; the refill above moves it
		// (and its near neighbors) into the wheels next iteration.
		w.curTick = tickOf(int64(w.far.min().at))
	}
}

// cascadeBucket redistributes the bucket at (lvl, idx) into lower levels.
// Called only for buckets whose span curTick has just entered, so every
// event lands at least one level down and redistribution terminates.
func (w *wheel) cascadeBucket(lvl, idx int) {
	b := w.levels[lvl][idx]
	w.levels[lvl][idx] = b[:0]
	w.occ[lvl] &^= 1 << uint(idx)
	for i, ev := range b {
		b[i] = nil
		w.place(ev, tickOf(int64(ev.at)))
	}
}

// drainBucket moves the level-0 bucket at idx — all events of tick
// curTick — into the drain buffer in (at, seq) order. The bucket's slice
// becomes the drain buffer and the (empty, clean) drain storage becomes
// the bucket, so no pointers are copied or cleared.
func (w *wheel) drainBucket(idx int) {
	d := w.levels[0][idx]
	w.levels[0][idx] = w.drain[:0]
	w.drain = d
	w.occ[0] &^= 1 << uint(idx)
	if len(d) == 1 {
		d[0].lvl = locDrain
		d[0].index = 0
		return
	}
	// Insertion sort: buckets hold the events of one 65 ns tick — a
	// handful at most — and sort.Slice would allocate on the hot path.
	for i := 1; i < len(d); i++ {
		ev := d[i]
		j := i
		for j > 0 && eventLess(ev, d[j-1]) {
			d[j] = d[j-1]
			j--
		}
		d[j] = ev
	}
	for _, ev := range d {
		ev.lvl = locDrain
		ev.index = 0
	}
}

// drainInsert files ev into the drain buffer at its (at, seq) position.
// The engine hands out strictly increasing seq on every (re)schedule, so
// ev orders after any drained event with an equal timestamp, and an event
// at or after the last entry's time is a plain append. Drain entries carry
// no position (index stays 0 while pending): drainRemove finds them by
// key, so an insert never re-numbers the tail it shifts.
func (w *wheel) drainInsert(ev *Event) {
	ev.lvl = locDrain
	ev.index = 0
	d := w.drain
	n := len(d)
	if n == w.drainHead || d[n-1].at <= ev.at {
		w.drain = append(d, ev)
		return
	}
	lo, hi := w.drainHead, n-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if h := w.drainHead; h > 0 && lo-h < n-lo {
		// Nearer the head: slide the shorter pending prefix into the
		// popped slot before it instead of the tail after it.
		copy(d[h-1:lo-1], d[h:lo])
		d[lo-1] = ev
		w.drainHead = h - 1
		return
	}
	d = append(d, nil)
	copy(d[lo+1:], d[lo:])
	d[lo] = ev
	w.drain = d
}

// drainRemove deletes ev from the drain buffer. The pending entries
// (from drainHead on) are sorted by (at, seq) and seq is unique, so a
// binary search on ev's current key lands on it exactly.
func (w *wheel) drainRemove(ev *Event) {
	d := w.drain
	lo, hi := w.drainHead, len(d)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(d[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(d) || d[lo] != ev {
		panic("sim: drain entry not found under its (at, seq) key")
	}
	if h := w.drainHead; lo-h < len(d)-1-lo {
		// Close the gap from whichever side is shorter.
		copy(d[h+1:lo+1], d[h:lo])
		d[h] = nil
		w.drainHead = h + 1
	} else {
		n := len(d) - 1
		copy(d[lo:], d[lo+1:])
		d[n] = nil
		w.drain = d[:n]
	}
	if w.drainHead >= len(w.drain) {
		w.drain = w.drain[:0]
		w.drainHead = 0
	}
}

// nearestBucket returns the occupied bucket index reached first when
// scanning occ forward (with wraparound) from position from.
func nearestBucket(occ uint64, from int) int {
	r := bits.RotateLeft64(occ, -from)
	return (from + bits.TrailingZeros64(r)) & bucketMask
}
