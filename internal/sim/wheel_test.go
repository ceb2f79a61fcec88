package sim

// Tests for the timing-wheel calendar: deterministic edge cases around
// bucket and level boundaries, cascades, the far-future heap, and a
// cross-implementation property test that drives the wheel-backed engine
// and a 4-ary-heap reference through identical operation sequences — the
// cross-implementation extension of TestPropertyScheduleCancelRescheduleMix.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/units"
)

const (
	tickSpan  = units.Duration(1) << tickBits                 // one level-0 bucket
	l0Horizon = units.Duration(numBuckets) << tickBits        // level-0 reach
	l1Horizon = units.Duration(numBuckets) << (tickBits + 6)  // level-1 reach
	l2Horizon = units.Duration(numBuckets) << (tickBits + 12) // level-2 reach
	farBeyond = 2 * l2Horizon                                 // safely past the wheel
)

// runOrder drains the engine and returns the firing order of the labels.
func runOrder(e *Engine) []string {
	var got []string
	e.Trace = func(_ units.Time, label string) { got = append(got, label) }
	e.Run()
	e.Trace = nil
	return got
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// Events landing exactly on bucket and level boundaries must still fire in
// (time, seq) order: the boundary tick belongs to the next bucket, never
// both.
func TestWheelBucketBoundaryEvents(t *testing.T) {
	e := New()
	bounds := []units.Duration{
		0, 1,
		tickSpan - 1, tickSpan, tickSpan + 1,
		l0Horizon - 1, l0Horizon, l0Horizon + 1,
		l1Horizon - 1, l1Horizon, l1Horizon + 1,
		l2Horizon - 1, l2Horizon, l2Horizon + 1,
	}
	// Schedule in a scrambled order; expect ascending firing times with
	// FIFO among the duplicates created below.
	var want []units.Time
	for _, d := range bounds {
		at := units.Time(d)
		e.At(at, "b", func() {})
		e.At(at, "b", func() {}) // same-timestamp pair: FIFO tie inside a bucket
		want = append(want, at, at)
	}
	var got []units.Time
	e.Trace = func(at units.Time, _ string) { got = append(got, at) }
	e.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d: %v", i, got)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// Reschedule must work across every pair of wheel levels and the far heap,
// in both directions.
func TestWheelRescheduleAcrossLevels(t *testing.T) {
	delays := []units.Duration{
		1,                // level 0
		l0Horizon + 5000, // level 1
		l1Horizon + 5000, // level 2
		farBeyond,        // far heap
	}
	for _, from := range delays {
		for _, to := range delays {
			e := New()
			e.At(units.Time(to)+1, "marker", func() {})
			ev := e.At(units.Time(from), "moved", func() {})
			e.Reschedule(ev, units.Time(to))
			got := runOrder(e)
			want := []string{"moved", "marker"}
			assertOrder(t, got, want)
		}
	}
}

// Rescheduling into the tick currently being served must interleave with
// the already-sorted drain buffer.
func TestWheelRescheduleIntoCurrentTick(t *testing.T) {
	e := New()
	base := units.Time(10 * tickSpan)
	var pulled *Event
	e.At(base, "first", func() {
		// Now serving base's tick; pull a far event into this same tick,
		// after "second" (same tick) but before "third".
		e.Reschedule(pulled, base+2)
	})
	e.At(base+1, "second", func() {})
	e.At(base+3, "third", func() {})
	pulled = e.At(units.Time(farBeyond), "pulled", func() {})
	assertOrder(t, runOrder(e), []string{"first", "second", "pulled", "third"})
}

// Canceling events that have cascaded from an upper level into lower
// buckets (and events still ahead of the cascade) must remove exactly the
// right events.
func TestWheelCancelAfterCascade(t *testing.T) {
	e := New()
	// A level-1 bucket holding several events; popping an early event
	// advances the wheel and cascades them to level 0.
	early := units.Time(5)
	inL1 := units.Time(l0Horizon + 10*tickSpan)
	var victims []*Event
	e.At(early, "early", func() {})
	for i := 0; i < 4; i++ {
		at := inL1.Add(units.Duration(i) * tickSpan)
		label := "keep"
		if i%2 == 1 {
			label = "victim"
		}
		ev := e.At(at, label, func() {})
		if i%2 == 1 {
			victims = append(victims, ev)
		}
	}
	if !e.Step() { // fires "early"; serving it does not yet cascade level 1
		t.Fatal("no first event")
	}
	// Force the cascade by peeking: min() settles onto the level-1 bucket.
	if e.queue.min().label == "" {
		t.Fatal("unexpected empty label")
	}
	for _, v := range victims {
		e.Cancel(v)
	}
	assertOrder(t, runOrder(e), []string{"keep", "keep"})
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d", e.Pending())
	}
}

// Events beyond the level-2 horizon overflow into the far heap and must
// cascade back in firing order, including events scheduled after the wheel
// has advanced (whose horizon has shifted).
func TestWheelFarFutureOverflow(t *testing.T) {
	e := New()
	var want []string
	e.At(units.Time(farBeyond)+10, "far2", func() {})
	e.At(units.Time(farBeyond), "far1", func() {})
	e.At(5, "near", func() {
		// Scheduled while running: lands between the near event and the
		// far ones, in a region the wheel has not yet reached.
		e.After(l1Horizon, "mid", func() {})
	})
	want = []string{"near", "mid", "far1", "far2"}
	assertOrder(t, runOrder(e), want)
}

// nopHandler is a trivial Handler for AfterEvent tests.
type nopHandler struct{}

func (nopHandler) HandleEvent(*Event) {}

// A delay so large that now+d overflows int64 picoseconds must saturate to
// units.MaxTime — landing in the far heap as "never" — instead of wrapping
// negative and tripping the schedule-in-the-past panic. Exponentially
// backed-off ack timeouts reach this regime after a few dozen doublings.
func TestWheelAfterOverflowClamps(t *testing.T) {
	e := New()
	maxD := units.Duration(math.MaxInt64)
	// From now = 0 the maximal delay lands exactly on the horizon, no wrap.
	if ev := e.After(maxD, "clamped1", func() {}); ev.at != units.MaxTime {
		t.Fatalf("After(maxD) at t=0 landed at %v, want units.MaxTime", ev.at)
	}
	e.At(5, "near", func() {
		// From a nonzero now the same delay wraps negative without the clamp.
		if ev := e.After(maxD, "clamped2", func() {}); ev.at != units.MaxTime {
			t.Errorf("mid-run After overflow landed at %v, want units.MaxTime", ev.at)
		}
		if ev := e.AfterEvent(maxD, "clamped3", nopHandler{}); ev.at != units.MaxTime {
			t.Errorf("mid-run AfterEvent overflow landed at %v, want units.MaxTime", ev.at)
		}
	})
	// Clamped events share units.MaxTime and fire FIFO after everything else.
	assertOrder(t, runOrder(e), []string{"near", "clamped1", "clamped2", "clamped3"})
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// Pending must track membership exactly through pushes, pops, cancels,
// reschedules, cascades and far-heap spills.
func TestWheelPendingConsistency(t *testing.T) {
	e := New()
	src := rng.New(3)
	var live []*Event
	count := 0
	for op := 0; op < 5000; op++ {
		switch src.Intn(5) {
		case 0, 1: // schedule at a horizon that exercises every level
			var d units.Duration
			switch src.Intn(4) {
			case 0:
				d = units.Duration(src.Intn(int(l0Horizon)))
			case 1:
				d = units.Duration(src.Intn(int(l1Horizon)))
			case 2:
				d = units.Duration(src.Intn(int(l2Horizon)))
			default:
				d = farBeyond + units.Duration(src.Intn(1<<40))
			}
			live = append(live, e.After(d, "p", nopFn))
			count++
		case 2: // cancel
			if len(live) == 0 {
				continue
			}
			i := src.Intn(len(live))
			e.Cancel(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			count--
		case 3: // reschedule
			if len(live) == 0 {
				continue
			}
			i := src.Intn(len(live))
			e.Reschedule(live[i], e.Now().Add(units.Duration(src.Intn(int(l2Horizon)))))
		case 4: // pop
			if count == 0 {
				continue
			}
			before := e.Now()
			if !e.Step() {
				t.Fatalf("op %d: Step found nothing with count=%d", op, count)
			}
			if e.Now() < before {
				t.Fatalf("op %d: time went backwards", op)
			}
			count--
			// Live list may hold the popped event; purge stale entries
			// lazily by index check.
			for j := 0; j < len(live); {
				if live[j].index < 0 {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					j++
				}
			}
		}
		if e.Pending() != count {
			t.Fatalf("op %d: Pending = %d, want %d", op, e.Pending(), count)
		}
	}
}

// heapCal is the reference calendar: the retained 4-ary heap driven with
// the engine's exact (time, seq) discipline.
type heapCal struct {
	q   eventQueue
	seq uint64
}

func (h *heapCal) at(at units.Time, id int) *Event {
	ev := &Event{at: at, seq: h.seq, A: int64(id)}
	h.seq++
	h.q.push(ev)
	return ev
}

func (h *heapCal) cancel(ev *Event) { h.q.remove(ev.index) }

func (h *heapCal) reschedule(ev *Event, at units.Time) {
	ev.at = at
	ev.seq = h.seq
	h.seq++
	h.q.fix(ev.index)
}

// Property: any mix of At / After / Cancel / Reschedule / pop produces the
// same firing sequence — same-tick ties and far-future cascades included —
// on the wheel-backed engine and the heap reference.
func TestPropertyWheelMatchesHeapReference(t *testing.T) {
	f := func(ops []uint32) bool {
		e := New()
		h := &heapCal{}
		type pair struct {
			ev  *Event // engine event
			ref *Event // reference event
		}
		var live []pair
		var got, want []int64
		nextID := 0
		// delayFor spreads ops across every wheel level, bucket boundaries
		// and the far horizon.
		delayFor := func(op uint32) units.Duration {
			switch (op >> 3) % 6 {
			case 0:
				return units.Duration(op % uint32(tickSpan)) // same/near tick
			case 1:
				return units.Duration(op) % l0Horizon
			case 2:
				return (units.Duration(op) << 6) % l1Horizon
			case 3:
				return (units.Duration(op) << 12) % l2Horizon
			case 4: // exact bucket boundaries
				return (units.Duration(op%512) << tickBits)
			default: // far heap
				return l2Horizon + (units.Duration(op) << 10)
			}
		}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // schedule
				at := e.Now().Add(delayFor(op))
				id := nextID
				nextID++
				ev := e.At(at, "x", func() { got = append(got, int64(id)) })
				ref := h.at(at, id)
				live = append(live, pair{ev, ref})
			case 2: // cancel a surviving pair
				if len(live) == 0 {
					continue
				}
				i := int(op/4) % len(live)
				e.Cancel(live[i].ev)
				h.cancel(live[i].ref)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case 3: // pop one event from both, or reschedule
				if op&4 != 0 && len(live) > 0 {
					i := int(op/8) % len(live)
					at := e.Now().Add(delayFor(op >> 2))
					e.Reschedule(live[i].ev, at)
					h.reschedule(live[i].ref, at)
					continue
				}
				if e.Pending() == 0 {
					continue
				}
				e.Step()
				ref := h.q.pop()
				want = append(want, ref.A)
				// Drop fired pairs from live (engine event is recycled).
				for j := 0; j < len(live); {
					if live[j].ref == ref {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						j++
					}
				}
			}
		}
		// Drain the rest in lockstep.
		for e.Step() {
			want = append(want, h.q.pop().A)
		}
		if h.q.len() != 0 || e.Pending() != 0 {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the drain buffer — the sorted events of the tick being served
// — keeps the heap reference's exact pop order through the operations that
// touch its middle: inserts between packed same-tick entries, and cancels
// and reschedules of drain-resident events to the same time, to a later
// time in the same tick, and to a later tick. Few distinct timestamps per
// tick make long runs of equal-time entries, so the (at, seq) key lookup
// must tell ties apart by seq.
func TestPropertyDrainBufferMatchesHeapReference(t *testing.T) {
	src := rng.New(17)
	maxDrain := 0
	for trial := 0; trial < 300; trial++ {
		e := New()
		h := &heapCal{}
		type pair struct{ ev, ref *Event }
		var live []pair
		var got, want []int64
		nextID := 0
		schedule := func(at units.Time) {
			id := nextID
			nextID++
			ev := e.At(at, "d", func() { got = append(got, int64(id)) })
			live = append(live, pair{ev, h.at(at, id)})
		}
		drop := func(i int) {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		pop := func() {
			e.Step()
			ref := h.q.pop()
			want = append(want, ref.A)
			for i := range live {
				if live[i].ref == ref {
					drop(i)
					break
				}
			}
		}
		// inTick returns a time in [from, end of from's tick), drawn from
		// eight slots per tick so equal timestamps are common.
		inTick := func(from units.Time) units.Time {
			end := units.Time((tickOf(int64(from)) + 1) << tickBits)
			slot := units.Time(tickSpan / 8)
			at := from + units.Time(src.Intn(8))*slot
			if at >= end {
				at = end - 1
			}
			return at
		}

		base := units.Time(tickSpan) * units.Time(1+src.Intn(50))
		for n := 8 + src.Intn(56); n > 0; n-- {
			schedule(inTick(base))
		}
		pop() // drains the packed bucket into the drain buffer
		for op := 0; op < 150 && e.Pending() > 0; op++ {
			if d := len(e.queue.drain) - e.queue.drainHead; d > maxDrain {
				maxDrain = d
			}
			i := src.Intn(len(live))
			switch src.Intn(6) {
			case 0: // insert into the tick being served
				schedule(inTick(e.Now()))
			case 1:
				e.Cancel(live[i].ev)
				h.cancel(live[i].ref)
				drop(i)
			case 2: // same time: moves behind its equal-time peers
				at := live[i].ev.Time()
				e.Reschedule(live[i].ev, at)
				h.reschedule(live[i].ref, at)
			case 3: // later time, same tick
				at := inTick(live[i].ev.Time())
				e.Reschedule(live[i].ev, at)
				h.reschedule(live[i].ref, at)
			case 4: // a later tick
				at := live[i].ev.Time() + units.Time(tickSpan)*units.Time(1+src.Intn(3))
				e.Reschedule(live[i].ev, at)
				h.reschedule(live[i].ref, at)
			default:
				pop()
			}
		}
		for e.Pending() > 0 {
			pop()
		}
		if h.q.len() != 0 {
			t.Fatalf("trial %d: reference holds %d events after the engine drained", trial, h.q.len())
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: pop %d fired event %d, reference %d", trial, k, got[k], want[k])
			}
		}
	}
	if maxDrain < 32 {
		t.Fatalf("drain buffer never held more than %d pending events; the property was not exercised", maxDrain)
	}
}
