package sim

import (
	"testing"

	"repro/internal/units"
)

// recHandler records every event it receives.
type recHandler struct {
	got []Event // copies, taken inside HandleEvent
}

func (h *recHandler) HandleEvent(ev *Event) { h.got = append(h.got, *ev) }

func TestTypedEventCarriesPayload(t *testing.T) {
	e := New()
	h := &recHandler{}
	p := &struct{ x int }{x: 7}
	ev := e.AtEvent(100, "typed", h)
	ev.Ptr, ev.T0, ev.T1, ev.A, ev.B = p, 10, 20, -3, 4
	e.Run()
	if len(h.got) != 1 {
		t.Fatalf("handler ran %d times, want 1", len(h.got))
	}
	g := h.got[0]
	if g.Ptr != any(p) || g.T0 != 10 || g.T1 != 20 || g.A != -3 || g.B != 4 {
		t.Fatalf("payload corrupted: %+v", g)
	}
	if g.Time() != 100 || g.Label() != "typed" {
		t.Fatalf("metadata corrupted: at=%v label=%q", g.Time(), g.Label())
	}
}

// Typed and closure events at the same timestamp run in scheduling order:
// the FIFO tie rule does not depend on which API scheduled the event.
func TestTypedAndClosureEventsShareFIFOTies(t *testing.T) {
	e := New()
	var order []int
	h := &eventFunc{fn: func(ev *Event) { order = append(order, int(ev.A)) }}
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			ev := e.AtEvent(50, "typed", h)
			ev.A = int64(i)
		} else {
			i := i
			e.At(50, "closure", func() { order = append(order, i) })
		}
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want scheduling order", order)
		}
	}
}

type eventFunc struct{ fn func(ev *Event) }

func (h *eventFunc) HandleEvent(ev *Event) { h.fn(ev) }

// A recycled typed event must not pin its payload: release clears Ptr.
func TestTypedEventReleaseClearsPtr(t *testing.T) {
	e := New()
	h := &recHandler{}
	ev := e.AtEvent(1, "typed", h)
	ev.Ptr = &struct{}{}
	e.Run()
	// The fired event is now on the free list; a fresh schedule must reuse
	// it with a nil payload.
	ev2 := e.AtEvent(2, "next", h)
	if ev2 != ev {
		t.Fatalf("free list did not recycle the event")
	}
	if ev2.Ptr != nil || ev2.T0 != 0 || ev2.A != 0 {
		t.Fatalf("recycled event retains payload: %+v", *ev2)
	}
}

func TestTypedEventReschedule(t *testing.T) {
	e := New()
	h := &recHandler{}
	ev := e.AtEvent(100, "typed", h)
	ev.A = 42
	e.Reschedule(ev, 500)
	e.Run()
	if len(h.got) != 1 || h.got[0].Time() != 500 || h.got[0].A != 42 {
		t.Fatalf("rescheduled typed event: %+v", h.got)
	}
}

func TestAtEventPastPanics(t *testing.T) {
	e := New()
	e.At(100, "advance", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a typed event in the past did not panic")
		}
	}()
	e.AtEvent(50, "late", &recHandler{})
}

func TestAtEventNilHandlerPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.AtEvent(1, "nil", nil)
}

// The typed path must stay allocation-free in steady state — the whole
// point of its existence.
func TestTypedEventSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	h := &eventFunc{fn: func(*Event) {}}
	// Warm the free list and the queue.
	for i := 0; i < 64; i++ {
		e.AfterEvent(units.Duration(i), "warm", h)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		ev := e.AfterEvent(10, "steady", h)
		ev.A = 1
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+step allocates %.1f per op, want 0", allocs)
	}
}
