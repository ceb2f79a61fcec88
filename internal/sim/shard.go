// Conservative parallel simulation: a Coordinator advances N per-shard
// Engines in lockstep epochs of one lookahead each (the classic
// null-message/barrier insight specialized to barriers).
//
// The contract is determinism by grouping-independence. Simulation objects
// are partitioned onto shards; objects in different shards may interact
// ONLY through cross-shard channels (Chan), whose messages carry a modeled
// latency of at least the coordinator's lookahead. Then:
//
//   - Every message sent during the epoch [t, t+L) is due at or after t+L,
//     so when an epoch opens, every message due inside it has already been
//     exchanged at the preceding barrier. No shard can ever observe an
//     event "from the past" — the conservative guarantee.
//
//   - Messages are inserted into the destination engine sorted by
//     (At, channel id, per-channel seq) — a total order that depends only
//     on what was sent, never on which shard sent it or when the sending
//     shard's engine ran. Channel ids are assigned in construction order,
//     which the topology layer keeps fixed across shard counts.
//
//   - The epoch grid {0, L, 2L, ...} depends only on the lookahead, which
//     the topology layer derives from the link parameters, not from the
//     shard count. The coordinator skips epochs in which no shard has an
//     event or a message due, and runs only the shards that do: an epoch
//     that executes nothing changes nothing, so skipping it keeps every
//     event and timestamp the same.
//
// Together these make a run a pure function of (configuration, seed): the
// same objects execute the same events at the same timestamps whether they
// are grouped onto 1, 2 or N shards, and whether the barrier is the
// round-based sequential loop or the channel-based parallel one. The
// equivalence tests in internal/experiments lock this end to end.
package sim

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/units"
)

// Msg is a deferred cross-shard event: a typed Handler dispatch (the same
// shape as Event's payload) routed through the destination shard's mailbox
// instead of scheduled directly. The payload fields mirror Event's and are
// copied onto the inserted event verbatim.
type Msg struct {
	At     units.Time
	Label  string
	H      Handler
	Ptr    any
	T0, T1 units.Time
	A, B   int64

	ch  int32  // channel id: the mailbox sort key after At
	seq uint64 // per-channel send counter: the final tie-break
}

// Shard is one engine of a sharded run plus its mailbox of exchanged but
// not yet inserted messages.
type Shard struct {
	ID  int
	Eng *Engine

	pending []Msg      // exchanged messages, sorted by (At, ch, seq) when !dirty
	dirty   bool       // pending grew since it was last sorted
	pendMin units.Time // earliest At in pending; MaxTime when empty

	// sent lists the channels out of this shard holding sends not yet
	// exchanged, in first-send order, so the barrier walks only the
	// channels that carried traffic. Only this shard's events append to it.
	sent []*Chan
	// next is the shard's earliest due work, an event or a message;
	// refreshed by the coordinator at each barrier.
	next units.Time
}

// Chan is one direction of one cross-shard coupling: a packet path or a
// credit-return path. Sends append to a buffer owned by the sending shard
// until the next barrier moves it into the destination mailbox, so no lock
// is held on the hot path. A channel's sends are totally ordered by its
// sequence counter; together with the channel id this makes mailbox
// insertion order independent of shard grouping (see the package comment).
type Chan struct {
	id     int32
	seq    uint64
	src    *Shard
	dst    *Shard
	minLag units.Duration
	box    []Msg
	minAt  units.Time // earliest At in box (meaningful while box is non-empty)
}

// Send enqueues a Handler dispatch on the destination shard at absolute
// time at. It returns a pointer for the caller to fill payload fields,
// valid only until the next Send on the same channel (the buffer may move).
// A send closer than the channel's declared latency floor panics: it would
// break the conservative guarantee, not just reorder events.
func (ch *Chan) Send(at units.Time, label string, h Handler) *Msg {
	now := ch.src.Eng.Now()
	if at.Sub(now) < ch.minLag {
		panic(fmt.Sprintf("sim: cross-shard send %q at %v violates the %v lookahead (now %v)", label, at, ch.minLag, now))
	}
	if h == nil {
		panic(fmt.Sprintf("sim: nil handler for cross-shard %q", label))
	}
	if len(ch.box) == 0 {
		ch.src.sent = append(ch.src.sent, ch)
		ch.minAt = at
	} else if at < ch.minAt {
		ch.minAt = at
	}
	ch.box = append(ch.box, Msg{At: at, Label: label, H: h, ch: ch.id, seq: ch.seq})
	ch.seq++
	return &ch.box[len(ch.box)-1]
}

// Coordinator synchronizes shards over a fixed epoch grid.
type Coordinator struct {
	shards    []*Shard
	nchans    int32 // channels opened: the next channel id
	lookahead units.Duration
	// Parallel selects the channel-based barrier: an epoch in which two or
	// more shards have work due hands all but the first of them to worker
	// goroutines (one per shard beyond the first, alive for one RunUntil)
	// and runs the first on the calling goroutine, joining all before the
	// exchange. An epoch with one busy shard runs inline. False (the
	// default) is the round-based reference loop — the only sensible mode
	// on one core. Results are identical either way; the race detector
	// over the parallel mode is part of `make test-shard`.
	Parallel bool

	interrupt func() bool
	aborted   bool

	epochs, skipped uint64

	// Reused per epoch: the shards with work due, and the channel-barrier
	// hand-off (created on the first parallel run). horizon and final are
	// written before an epoch's hand-off and read by the workers after it.
	busy    []*Shard
	work    chan *Shard
	worker  func()
	wg      sync.WaitGroup
	horizon units.Time
	final   bool
}

// SetInterrupt installs an external abort check on the coordinator and on
// every shard engine. Engines poll it inside their epochs (so even a
// single long epoch aborts promptly); the coordinator additionally checks
// it at each barrier and abandons the run. An aborted cluster is mid-epoch
// and possibly out of step across shards — the caller must discard it, the
// same contract as Engine.SetInterrupt. In the parallel barrier mode every
// worker goroutine is joined before RunUntil returns, aborted or not.
func (c *Coordinator) SetInterrupt(f func() bool) {
	c.interrupt = f
	c.aborted = false
	for _, s := range c.shards {
		s.Eng.SetInterrupt(f)
	}
}

// Aborted reports whether the last RunUntil was abandoned by the
// interrupt check.
func (c *Coordinator) Aborted() bool { return c.aborted }

// interrupted is the coordinator's own barrier-time check.
func (c *Coordinator) interrupted() bool {
	if c.interrupt != nil && c.interrupt() {
		c.aborted = true
		return true
	}
	for _, s := range c.shards {
		if s.Eng.Aborted() {
			c.aborted = true
			return true
		}
	}
	return false
}

// NewCoordinator builds n shards advancing in epochs of the given
// lookahead. Zero (or negative) lookahead is rejected: a zero-latency cut
// admits no conservative window at all, so such a link cannot be sharded.
func NewCoordinator(n int, lookahead units.Duration) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: coordinator needs at least one shard, got %d", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: conservative sharding needs positive lookahead, got %v", lookahead)
	}
	c := &Coordinator{lookahead: lookahead}
	for i := 0; i < n; i++ {
		c.shards = append(c.shards, &Shard{ID: i, Eng: New(), pendMin: units.MaxTime})
	}
	return c, nil
}

// NumShards reports the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Shard returns shard i.
func (c *Coordinator) Shard(i int) *Shard { return c.shards[i] }

// Lookahead reports the epoch length.
func (c *Coordinator) Lookahead() units.Duration { return c.lookahead }

// Epochs reports how many epochs the coordinator has executed, over all
// RunUntil calls.
func (c *Coordinator) Epochs() uint64 { return c.epochs }

// Skipped reports how many grid epochs the coordinator has skipped because
// no shard had an event or a message due in them. Epochs() + Skipped() is
// the number of epochs on the grids of all RunUntil calls so far.
func (c *Coordinator) Skipped() uint64 { return c.skipped }

// Channel opens a message channel from shard src to shard dst (src == dst
// is the degenerate self-loop a one-shard run uses, so the message path —
// and therefore the schedule — does not depend on the shard count). minLag
// declares the channel's modeled latency floor; it must cover the
// coordinator's lookahead or the epoch grid would be unsound.
func (c *Coordinator) Channel(src, dst int, minLag units.Duration) (*Chan, error) {
	if minLag < c.lookahead {
		return nil, fmt.Errorf("sim: channel latency %v below the coordinator lookahead %v", minLag, c.lookahead)
	}
	ch := &Chan{id: c.nchans, src: c.shards[src], dst: c.shards[dst], minLag: minLag}
	c.nchans++
	return ch, nil
}

// RunUntil advances every shard to absolute time end over the epoch grid
// start + k*lookahead, start being the shards' common clock: epochs of one
// lookahead each, a barrier and message exchange between epochs, and a
// final partial epoch that executes events at exactly end (matching
// Engine.RunUntil's inclusive deadline). Epochs in which no shard has work
// due are skipped, and only the shards with work due run an epoch; every
// shard's clock reaches end with the final epoch.
func (c *Coordinator) RunUntil(end units.Time) {
	start := c.shards[0].Eng.Now()
	for _, s := range c.shards {
		if s.Eng.Now() != start {
			panic("sim: coordinator shards out of step")
		}
	}
	// Sends made between runs (outside any epoch) must reach the mailboxes
	// before the first skip reads them.
	c.exchange()
	par := c.Parallel && len(c.shards) > 1
	if par {
		c.startWorkers()
		defer c.stopWorkers()
	}
	l := c.lookahead
	last := start // opening of the final, inclusive epoch
	if end > start {
		last = start.Add(end.Sub(start) / l * l)
	}
	for t := start; ; {
		if next := c.nextWork(); next > t {
			to := last
			if next < last {
				to = start.Add(next.Sub(start) / l * l)
			}
			c.skipped += uint64(to.Sub(t) / l)
			t = to
		}
		final := t == last
		horizon := end
		if !final {
			horizon = t.Add(l)
		}
		c.runBusy(horizon, final, par)
		c.epochs++
		if c.interrupted() {
			return
		}
		c.exchange()
		if final {
			return
		}
		t = t.Add(l)
	}
}

// nextWork refreshes every shard's earliest due work and returns the
// minimum (MaxTime when nothing is pending anywhere).
func (c *Coordinator) nextWork() units.Time {
	next := units.MaxTime
	for _, s := range c.shards {
		s.next = min(s.Eng.nextAt(), s.pendMin)
		next = min(next, s.next)
	}
	return next
}

// runBusy executes one epoch on the shards with work due before the
// horizon. The final epoch runs every shard: for an idle one that only
// moves its clock to the end. With the channel barrier and two or more
// busy shards, all but the first are handed to the workers and the first
// runs on the calling goroutine. The coordinator alone touches mailboxes
// and channel buffers, and only between barriers, so the hand-off and the
// WaitGroup join order every coordinator access strictly before/after the
// workers' epoch (`go test -race` checks the construction).
func (c *Coordinator) runBusy(horizon units.Time, final, par bool) {
	busy := c.busy[:0]
	for _, s := range c.shards {
		if final || s.next < horizon {
			busy = append(busy, s)
		}
	}
	c.busy = busy
	if !par || len(busy) < 2 {
		for _, s := range busy {
			s.runEpoch(horizon, final)
		}
		return
	}
	c.horizon, c.final = horizon, final
	c.wg.Add(len(busy) - 1)
	for _, s := range busy[1:] {
		c.work <- s
	}
	busy[0].runEpoch(horizon, final)
	c.wg.Wait()
}

// startWorkers launches one worker goroutine per shard beyond the first:
// the most an epoch ever hands off. The hand-off channel and the worker
// function are made once per coordinator, so a run allocates nothing for
// them in steady state.
func (c *Coordinator) startWorkers() {
	n := len(c.shards) - 1
	if c.work == nil {
		c.work = make(chan *Shard, n)
		c.worker = func() {
			for s := <-c.work; s != nil; s = <-c.work {
				s.runEpoch(c.horizon, c.final)
				c.wg.Done()
			}
			c.wg.Done() // the stop signal
		}
	}
	for i := 0; i < n; i++ {
		go c.worker()
	}
}

// stopWorkers ends and joins the workers. Deferred by RunUntil, it also
// runs when an inline epoch panics, after the workers finish theirs.
func (c *Coordinator) stopWorkers() {
	n := len(c.shards) - 1
	c.wg.Add(n)
	for i := 0; i < n; i++ {
		c.work <- nil
	}
	c.wg.Wait()
}

// runEpoch inserts the messages due in the epoch and executes it: events
// strictly before the horizon, or inclusively for the final epoch.
func (s *Shard) runEpoch(horizon units.Time, final bool) {
	s.deliverDue(horizon, final)
	if final {
		s.Eng.RunUntil(horizon)
	} else {
		s.Eng.RunBefore(horizon)
	}
}

// deliverDue schedules every pending message with At < horizon (<= for the
// final, inclusive epoch) on the shard's engine. A message due at exactly
// the epoch's opening boundary is scheduled at now, after the events the
// previous epoch left at that timestamp — the same relative order a
// one-shard run produces, because exchange always happens after the epoch
// that sent the message.
func (s *Shard) deliverDue(horizon units.Time, inclusive bool) {
	if s.dirty {
		slices.SortFunc(s.pending, msgCompare)
		s.dirty = false
	}
	n := 0
	for n < len(s.pending) {
		at := s.pending[n].At
		if at > horizon || (at == horizon && !inclusive) {
			break
		}
		n++
	}
	for i := 0; i < n; i++ {
		m := &s.pending[i]
		ev := s.Eng.AtEvent(m.At, m.Label, m.H)
		ev.Ptr, ev.T0, ev.T1, ev.A, ev.B = m.Ptr, m.T0, m.T1, m.A, m.B
	}
	if n > 0 {
		rest := copy(s.pending, s.pending[n:])
		clear(s.pending[rest:]) // drop payload references
		s.pending = s.pending[:rest]
	}
	s.pendMin = units.MaxTime
	if len(s.pending) > 0 {
		s.pendMin = s.pending[0].At
	}
}

// exchange moves the sends of every channel that carried traffic since the
// last barrier into its destination mailbox. The mailbox is resorted
// lazily on the next delivery; (At, ch, seq) is a total order, so the
// append order across channels is irrelevant.
func (c *Coordinator) exchange() {
	for _, s := range c.shards {
		for _, ch := range s.sent {
			d := ch.dst
			d.pending = append(d.pending, ch.box...)
			d.dirty = true
			d.pendMin = min(d.pendMin, ch.minAt)
			clear(ch.box) // drop payload references
			ch.box = ch.box[:0]
		}
		clear(s.sent)
		s.sent = s.sent[:0]
	}
}

// msgCompare orders mailbox messages by (At, channel, seq).
func msgCompare(a, b Msg) int {
	switch {
	case a.At != b.At:
		if a.At < b.At {
			return -1
		}
		return 1
	case a.ch != b.ch:
		return int(a.ch) - int(b.ch)
	case a.seq != b.seq:
		if a.seq < b.seq {
			return -1
		}
		return 1
	}
	return 0
}
