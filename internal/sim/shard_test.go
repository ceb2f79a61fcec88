package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

// The shard tests verify the conservative protocol's contract directly at
// the sim layer: grouping-independence (the same objects produce the same
// event history on 1 shard and on N), the epoch-horizon ordering rules,
// zero-lookahead rejection, and the interaction between mailbox-inserted
// events and Cancel/Reschedule. The fabric-level equivalence tests in
// internal/experiments build on these.

// bouncer is a test node: it logs every typed event it handles and, while
// its hop budget lasts, bounces a message back to its peer over its channel.
type bouncer struct {
	name string
	eng  *Engine
	out  *Chan
	peer Handler
	lag  units.Duration
	log  []string

	// victim is an optional pending local event the bouncer manipulates on
	// command: A == -1 cancels it, A == -2 pulls it earlier by one ns.
	victim *Event
}

func (b *bouncer) HandleEvent(ev *Event) {
	b.log = append(b.log, fmt.Sprintf("%s %v %s %d", b.name, b.eng.Now(), ev.Label(), ev.A))
	switch {
	case ev.A == -1 && b.victim != nil:
		b.eng.Cancel(b.victim)
		b.victim = nil
	case ev.A == -2 && b.victim != nil:
		b.eng.Reschedule(b.victim, b.eng.Now().Add(1*units.Nanosecond))
	case ev.A > 0:
		m := b.out.Send(b.eng.Now().Add(b.lag), "bounce", b.peer)
		m.A = ev.A - 1
	}
}

// buildPingPong wires two bouncers onto a coordinator with the given
// shard placement, kicks node a with `hops` bounces at start, and returns
// the nodes. lag is both the channel latency floor and the bounce delay.
func buildPingPong(t *testing.T, shards int, placeB int, lag units.Duration, hops int64) (*Coordinator, *bouncer, *bouncer) {
	t.Helper()
	coord, err := NewCoordinator(shards, lag)
	if err != nil {
		t.Fatal(err)
	}
	a := &bouncer{name: "a", eng: coord.Shard(0).Eng, lag: lag}
	bb := &bouncer{name: "b", eng: coord.Shard(placeB).Eng, lag: lag}
	ab, err := coord.Channel(0, placeB, lag)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := coord.Channel(placeB, 0, lag)
	if err != nil {
		t.Fatal(err)
	}
	a.out, a.peer = ab, bb
	bb.out, bb.peer = ba, a
	// Kick: a local event on a's engine that starts the exchange.
	ev := a.eng.AtEvent(0, "kick", a)
	ev.A = hops
	return coord, a, bb
}

func pingPongLogs(t *testing.T, shards, placeB int, parallel bool, lag units.Duration, end units.Time) string {
	t.Helper()
	coord, a, b := buildPingPong(t, shards, placeB, lag, 40)
	coord.Parallel = parallel
	coord.RunUntil(end)
	return strings.Join(a.log, "\n") + "\n---\n" + strings.Join(b.log, "\n")
}

// TestShardGroupingIndependence is the core determinism property: the same
// two objects exchange the same messages at the same times whether they
// share one shard (self-loop channels) or sit on two, and whether the
// barrier is round-based or channel-based.
func TestShardGroupingIndependence(t *testing.T) {
	const lag = 7 * units.Nanosecond
	end := units.Time(0).Add(2 * units.Microsecond)
	ref := pingPongLogs(t, 1, 0, false, lag, end)
	if !strings.Contains(ref, "bounce") {
		t.Fatalf("reference run exchanged no messages:\n%s", ref)
	}
	for _, tc := range []struct {
		name     string
		shards   int
		placeB   int
		parallel bool
	}{
		{"two-shards-rounds", 2, 1, false},
		{"two-shards-channel-barrier", 2, 1, true},
		{"one-shard-parallel-flag", 1, 0, true}, // degenerates to rounds
	} {
		if got := pingPongLogs(t, tc.shards, tc.placeB, tc.parallel, lag, end); got != ref {
			t.Errorf("%s diverged from the one-shard reference:\n--- ref ---\n%s\n--- got ---\n%s", tc.name, ref, got)
		}
	}
}

// TestShardEpochHorizonSimultaneity pins the ordering rule at epoch
// boundaries: a message due at exactly k*L is inserted when the epoch
// opening at k*L begins, and orders after local events already scheduled at
// that same timestamp — in every grouping. The bounce lag equals the
// lookahead, so every delivery lands exactly on the epoch grid.
func TestShardEpochHorizonSimultaneity(t *testing.T) {
	const lag = 10 * units.Nanosecond
	end := units.Time(0).Add(500 * units.Nanosecond)
	run := func(shards, placeB int, parallel bool) string {
		coord, a, b := buildPingPong(t, shards, placeB, lag, 20)
		coord.Parallel = parallel
		// Local events at the exact delivery timestamps of the first two
		// bounces (t = lag on b, t = 2*lag on a). They are scheduled before
		// the run, hence before the mailbox insertions at those timestamps,
		// and must execute first.
		bv := b.eng.AtEvent(units.Time(0).Add(lag), "local", b)
		bv.A = 0
		av := a.eng.AtEvent(units.Time(0).Add(2*lag), "local", a)
		av.A = 0
		coord.RunUntil(end)
		return strings.Join(a.log, "\n") + "\n---\n" + strings.Join(b.log, "\n")
	}
	ref := run(1, 0, false)
	for i, line := range []string{"b 10.00ns local 0", "b 10.00ns bounce 19"} {
		if !strings.Contains(ref, line) {
			t.Fatalf("missing expected log line %d %q in:\n%s", i, line, ref)
		}
	}
	// Local-before-mailbox at the shared timestamp.
	if li, mi := strings.Index(ref, "b 10.00ns local 0"), strings.Index(ref, "b 10.00ns bounce 19"); li > mi {
		t.Errorf("local event at the epoch horizon ran after the mailbox delivery:\n%s", ref)
	}
	for _, parallel := range []bool{false, true} {
		if got := run(2, 1, parallel); got != ref {
			t.Errorf("horizon run (parallel=%v) diverged:\n--- ref ---\n%s\n--- got ---\n%s", parallel, ref, got)
		}
	}
}

// TestShardZeroLookaheadRejected: a zero-latency cut admits no conservative
// window; both the coordinator and the per-channel floor reject it.
func TestShardZeroLookaheadRejected(t *testing.T) {
	if _, err := NewCoordinator(2, 0); err == nil {
		t.Error("NewCoordinator accepted zero lookahead")
	}
	if _, err := NewCoordinator(2, -1*units.Nanosecond); err == nil {
		t.Error("NewCoordinator accepted negative lookahead")
	}
	if _, err := NewCoordinator(0, units.Nanosecond); err == nil {
		t.Error("NewCoordinator accepted zero shards")
	}
	coord, err := NewCoordinator(2, 5*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Channel(0, 1, 4*units.Nanosecond); err == nil {
		t.Error("Channel accepted a latency floor below the coordinator lookahead")
	}
	ch, err := coord.Channel(0, 1, 5*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	// A send under the declared floor must panic, not silently reorder.
	defer func() {
		if recover() == nil {
			t.Error("Send below the lookahead did not panic")
		}
	}()
	ch.Send(units.Time(0).Add(4*units.Nanosecond), "too-soon", &bouncer{})
}

// TestShardMailboxCancelReschedule: events created by mailbox insertion are
// ordinary engine events; a handler driven by one may cancel or reschedule
// other pending events, and the outcome is grouping-independent.
func TestShardMailboxCancelReschedule(t *testing.T) {
	const lag = 8 * units.Nanosecond
	end := units.Time(0).Add(1 * units.Microsecond)
	run := func(shards, placeB int, parallel bool) string {
		coord, err := NewCoordinator(shards, lag)
		if err != nil {
			t.Fatal(err)
		}
		b := &bouncer{name: "b", eng: coord.Shard(placeB).Eng, lag: lag}
		ab, err := coord.Channel(0, placeB, lag)
		if err != nil {
			t.Fatal(err)
		}
		coord.Parallel = parallel
		// b holds a far-future victim event; a mailbox message arriving at
		// t=lag pulls it to t=lag+1ns, and a second message at t=2*lag would
		// cancel it (already fired by then — Cancel of a fired event is
		// driven through victim=nil, so this also exercises the bookkeeping).
		b.victim = b.eng.AtEvent(units.Time(0).Add(600*units.Nanosecond), "victim", b)
		b.victim.A = 0
		m := ab.Send(units.Time(0).Add(lag), "pull", b)
		m.A = -2
		m2 := ab.Send(units.Time(0).Add(2*lag), "cancel", b)
		m2.A = -1
		// Second victim: canceled by a third message before it can fire.
		b2 := &bouncer{name: "c", eng: coord.Shard(placeB).Eng, lag: lag}
		b2.victim = b2.eng.AtEvent(units.Time(0).Add(700*units.Nanosecond), "victim2", b2)
		b2.victim.A = 0
		m3 := ab.Send(units.Time(0).Add(3*lag), "cancel2", b2)
		m3.A = -1
		coord.RunUntil(end)
		return strings.Join(b.log, "\n") + "\n---\n" + strings.Join(b2.log, "\n")
	}
	ref := run(1, 0, false)
	if !strings.Contains(ref, "victim") {
		t.Fatalf("victim never fired in reference run:\n%s", ref)
	}
	if strings.Contains(ref, "victim2") {
		t.Fatalf("canceled victim2 fired anyway:\n%s", ref)
	}
	if !strings.Contains(ref, "b 9.00ns victim 0") {
		t.Fatalf("rescheduled victim did not fire at lag+1ns:\n%s", ref)
	}
	for _, parallel := range []bool{false, true} {
		if got := run(2, 1, parallel); got != ref {
			t.Errorf("cancel/reschedule run (parallel=%v) diverged:\n--- ref ---\n%s\n--- got ---\n%s", parallel, ref, got)
		}
	}
}

// TestRunBefore pins the exclusive-horizon semantics the epoch loop needs:
// events strictly before the horizon run, events at it stay queued, and the
// clock lands exactly on the horizon either way.
func TestRunBefore(t *testing.T) {
	e := New()
	var fired []string
	e.At(units.Time(0).Add(5*units.Nanosecond), "early", func() { fired = append(fired, "early") })
	e.At(units.Time(0).Add(10*units.Nanosecond), "at-horizon", func() { fired = append(fired, "at-horizon") })
	e.RunBefore(units.Time(0).Add(10 * units.Nanosecond))
	if got := strings.Join(fired, ","); got != "early" {
		t.Errorf("RunBefore ran %q, want only the strictly-earlier event", got)
	}
	if e.Now() != units.Time(0).Add(10*units.Nanosecond) {
		t.Errorf("clock at %v, want the horizon", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("%d events pending, want the at-horizon one", e.Pending())
	}
	e.RunBefore(units.Time(0).Add(20 * units.Nanosecond))
	if got := strings.Join(fired, ","); got != "early,at-horizon" {
		t.Errorf("second RunBefore left %q", got)
	}
}

// hopNode is a node of the idle-epoch test: it logs every event with its
// exact timestamp and, while ev.A > 0, forwards a hop to the next node after
// a long, grid-aligned delay, so most epochs between hops have nothing due.
// Each node keeps its own log: nodes on different shards run concurrently.
type hopNode struct {
	name string
	eng  *Engine
	next int
	out  []*Chan // out[j]: the channel to node j (nil for itself)
	all  []*hopNode
	lag  units.Duration
	log  []string
}

func (n *hopNode) HandleEvent(ev *Event) {
	n.log = append(n.log, fmt.Sprintf("%s %d %s %d", n.name, int64(n.eng.Now()), ev.Label(), ev.A))
	switch {
	case ev.A > 0:
		m := n.out[n.next].Send(n.eng.Now().Add(n.lag*units.Duration(50+13*ev.A)), "hop", n.all[n.next])
		m.A = ev.A - 1
	case ev.A < 0: // a ping at the minimum lag: due in the very next epoch
		m := n.out[n.next].Send(n.eng.Now().Add(n.lag), "ping", n.all[n.next])
		m.A = ev.A + 1
	}
}

// TestShardIdleEpochs drives the coordinator's activity-proportional paths
// — idle-epoch skipping, busy-shard dispatch and the exchange of only the
// channels that carried sends — with sparse traffic: hops separated by
// hundreds of idle epochs, messages due exactly on the boundary that opens
// the first epoch after a skip (next to a local event at the same
// timestamp), sends made between RunUntil calls, epochs with exactly one
// busy shard and a burst with three. The event history must be identical
// on 1, 2 and 4 shards under both barrier modes, and far fewer epochs than
// the grid holds may execute.
func TestShardIdleEpochs(t *testing.T) {
	const lag = 10 * units.Nanosecond
	const nodes = 4
	at := func(ns int64, ps int64) units.Time { return units.Time(ns*int64(units.Nanosecond) + ps) }
	ends := []units.Time{at(3000, 5), at(9000, 0), at(14000, 0)}
	type outcome struct {
		log             string
		epochs, skipped uint64
	}
	run := func(shards int, parallel bool) outcome {
		coord, err := NewCoordinator(shards, lag)
		if err != nil {
			t.Fatal(err)
		}
		coord.Parallel = parallel
		ns := make([]*hopNode, nodes)
		for i := range ns {
			ns[i] = &hopNode{name: fmt.Sprintf("n%d", i), eng: coord.Shard(i % shards).Eng,
				next: (i + 1) % nodes, out: make([]*Chan, nodes), all: ns, lag: lag}
		}
		for i := range ns {
			for j := range ns {
				if i == j {
					continue
				}
				if ns[i].out[j], err = coord.Channel(i%shards, j%shards, lag); err != nil {
					t.Fatal(err)
				}
			}
		}
		kick := func(n int, when units.Time, label string, hops int64) {
			ev := ns[n].eng.AtEvent(when, label, ns[n])
			ev.A = hops
		}
		// Two hop chains. n0's first hop lands on n1 at exactly 1280 ns, a
		// grid boundary after 127 idle epochs, where a local event waits.
		kick(0, 0, "kick", 6)
		kick(1, at(1280, 0), "local", 0)
		kick(2, at(2503, 7), "kick", 5)
		// A burst: three nodes busy in one epoch (three shards at shards=4).
		kick(0, at(5000, 0), "burst", 0)
		kick(2, at(5000, 1), "burst", 0)
		kick(3, at(5003, 0), "burst", 1)
		// Pings at the minimum lag, the first one off the grid after a
		// long idle stretch.
		kick(1, at(7777, 3), "kick", -3)
		// The last instant of an epoch of the second run, whose grid starts
		// at ends[0].
		kick(2, at(8000, 4), "kick", -1)
		coord.RunUntil(ends[0])
		// Between-run sends, due at the second run's first boundary (its
		// grid starts at ends[0], off the first run's grid) and after a skip.
		m := ns[1].out[2].Send(ends[0].Add(lag), "between", ns[2])
		m.A = 0
		m = ns[3].out[0].Send(ends[0].Add(40*lag), "between", ns[0])
		m.A = 2
		coord.RunUntil(ends[1])
		// Nothing is due by ends[2]: only the final epoch runs.
		coord.RunUntil(ends[2])
		for i := 0; i < shards; i++ {
			if now := coord.Shard(i).Eng.Now(); now != ends[2] {
				t.Fatalf("shards=%d parallel=%v: shard %d clock at %v, want %v", shards, parallel, i, now, ends[2])
			}
		}
		var logs []string
		for _, n := range ns {
			logs = append(logs, strings.Join(n.log, "\n"))
		}
		return outcome{strings.Join(logs, "\n---\n"), coord.Epochs(), coord.Skipped()}
	}
	ref := run(1, false)
	for _, want := range []string{"n1 1280000 local 0\nn1 1280000 hop 5", "between 0", "between 2", "burst 1", "n0 5633000 hop 0", "n0 7807003 ping 0"} {
		if !strings.Contains(ref.log, want) {
			t.Fatalf("reference history lacks %q:\n%s", want, ref.log)
		}
	}
	var grid uint64
	start := units.Time(0)
	for _, end := range ends {
		grid += uint64(end.Sub(start)/lag) + 1
		start = end
	}
	t.Logf("executed %d of %d grid epochs", ref.epochs, grid)
	if ref.epochs+ref.skipped != grid {
		t.Errorf("executed %d + skipped %d epochs, want the grid's %d", ref.epochs, ref.skipped, grid)
	}
	if ref.epochs*10 > grid {
		t.Errorf("executed %d of %d grid epochs; sparse traffic should skip nearly all", ref.epochs, grid)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			got := run(shards, parallel)
			if got.log != ref.log {
				t.Errorf("shards=%d parallel=%v diverged:\n--- ref ---\n%s\n--- got ---\n%s", shards, parallel, ref.log, got.log)
			}
			if got.epochs != ref.epochs || got.skipped != ref.skipped {
				t.Errorf("shards=%d parallel=%v: %d executed / %d skipped epochs, reference %d / %d",
					shards, parallel, got.epochs, got.skipped, ref.epochs, ref.skipped)
			}
		}
	}
}
