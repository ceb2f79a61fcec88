package ibswitch

import (
	"fmt"
	"testing"

	"repro/internal/ib"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// creditSink is a downstream device with a finite ingress buffer: it
// accepts a packet into gate and frees it hold later, so the egress
// feeding it sees credit refusals under load.
type creditSink struct {
	eng  *sim.Engine
	gate *link.BufferGate
	hold units.Duration
}

func (s *creditSink) DeliverArrival(pkt *ib.Packet, _, _ units.Time) {
	vl, size := pkt.VL, pkt.WireSize()
	s.gate.OnArrive(vl, size)
	s.eng.After(s.hold, "sink:depart", func() { s.gate.OnDepart(vl, size) })
}

type dropSink struct{}

func (dropSink) DeliverArrival(*ib.Packet, units.Time, units.Time) {}

// checkHeadIndex compares every egress port's head index against a
// brute-force scan of all input queue heads.
func checkHeadIndex(t *testing.T, sw *Switch, step int) {
	t.Helper()
	for _, out := range sw.ports {
		for _, in := range sw.ports {
			var want uint16
			for vl := range in.queues {
				if q := &in.queues[vl]; q.len() > 0 && q.front().outPort == out.idx {
					want |= 1 << vl
				}
			}
			if got := out.heads[in.idx]; got != want {
				t.Fatalf("step %d: egress %d heads[%d] = %#x, scan finds %#x", step, out.idx, in.idx, got, want)
			}
			if got := out.inputs[in.idx>>6]>>uint(in.idx&63)&1 == 1; got != (want != 0) {
				t.Fatalf("step %d: egress %d input bit %d = %v with heads %#x", step, out.idx, in.idx, got, want)
			}
		}
	}
}

// Property: after every event, each egress port's head index equals a
// brute-force scan of the input queue heads — through arrivals, transmits
// that expose heads bound elsewhere, heads not yet past their cut-through
// gate, credit stalls, port-down failover and heal — under every policy,
// on a switch small enough for one input word and one that needs two.
func TestPropertyHeadIndexMatchesScan(t *testing.T) {
	for _, ports := range []int{6, 70} {
		for _, pol := range []Policy{FCFS, RR, VLArb, SPF} {
			t.Run(fmt.Sprintf("%dports/%v", ports, pol), func(t *testing.T) {
				headIndexRun(t, ports, pol)
			})
		}
	}
}

func headIndexRun(t *testing.T, ports int, pol Policy) {
	eng := sim.New()
	par := model.OMNeTSim().Switch
	sw := New(eng, "idx", par, ports, rng.New(5))
	sw.SetPolicy(pol)
	var sl2vl ib.SL2VL
	for sl := range sl2vl {
		sl2vl[sl] = ib.VL(sl % 4)
	}
	sw.SetSL2VL(sl2vl)
	if pol == VLArb {
		// VL3 is left out of the tables: it is served only in the
		// background, so its heads stay indexed while listed VLs win.
		cfg := ib.VLArbConfig{
			High:      []ib.VLArbEntry{{VL: 1, Weight: ib.WeightUnits(2)}},
			Low:       []ib.VLArbEntry{{VL: 0, Weight: ib.WeightUnits(4)}, {VL: 2, Weight: ib.WeightUnits(1)}},
			HighLimit: ib.WeightUnits(2),
		}
		if err := sw.SetVLArb(cfg); err != nil {
			t.Fatal(err)
		}
	}

	lp := model.LinkParams{Bandwidth: 56 * units.Gbps, Propagation: 3 * units.Nanosecond}
	for i := 0; i < ports; i++ {
		if i%2 == 0 {
			g := link.NewBufferGate(eng, 50*units.Nanosecond, func(ib.VL) units.ByteSize { return 2 * (4096 + ib.MaxHeaderBytes) })
			sw.AttachPeer(i, lp, &creditSink{eng: eng, gate: g, hold: 300 * units.Nanosecond}, g)
		} else {
			sw.AttachPeer(i, lp, dropSink{}, link.Unlimited{})
		}
	}
	// Two nodes per port, routed in descending order; each node's failover
	// group is its primary and the next two ports.
	nodes := 2 * ports
	for d := nodes - 1; d >= 0; d-- {
		p := d % ports
		sw.SetRoute(ib.NodeID(d), p)
		sw.SetUplinks(ib.NodeID(d), []int{p, (p + 1) % ports, (p + 2) % ports})
	}

	src := rng.New(uint64(100*ports) + uint64(pol))
	steps := 10000
	if ports > 64 {
		steps = 800
	}
	injected := 0
	for step := 0; step < steps; step++ {
		switch r := src.Intn(20); {
		case r < 9:
			in := src.Intn(ports)
			pkt := &ib.Packet{Kind: ib.KindData, Verb: ib.VerbWrite, Transport: ib.RC, SrcNode: 999,
				DestNode: ib.NodeID(src.Intn(nodes)), SL: ib.SL(src.Intn(8)), LastInMsg: true,
				Payload: units.ByteSize(64 + src.Intn(2)*4032)}
			if !sw.ports[in].gate.TryReserve(sw.sl2vl.Map(pkt.SL), pkt.WireSize()) {
				continue
			}
			now := eng.Now()
			sw.Ingress(in).DeliverArrival(pkt, now, now)
			injected++
		case r == 9:
			i := src.Intn(ports)
			sw.SetPortDown(i, !(sw.portDown != nil && sw.portDown[i]))
		default:
			eng.Step()
		}
		checkHeadIndex(t, sw, step)
	}
	for i := 0; i < ports; i++ {
		sw.SetPortDown(i, false)
	}
	for step := steps; eng.Step(); step++ {
		checkHeadIndex(t, sw, step)
	}
	if int(sw.ForwardedPackets) != injected {
		t.Fatalf("forwarded %d of %d injected packets", sw.ForwardedPackets, injected)
	}
	for _, out := range sw.ports {
		for w, word := range out.inputs {
			if word != 0 {
				t.Fatalf("egress %d input word %d = %#x after drain", out.idx, w, word)
			}
		}
	}
	if sw.FailedOver == 0 {
		t.Fatal("no packet failed over; the run did not exercise port-down routing")
	}
}

// Routes may be declared sparsely and in any order; a node never routed,
// whether inside the table's range or past its end, panics on delivery
// with the historical message.
func TestSetRouteSparseOutOfOrder(t *testing.T) {
	sw := New(sim.New(), "sparse", model.OMNeTSim().Switch, 4, rng.New(1))
	want := map[ib.NodeID]int{40: 3, 7: 1, 1000: 2, 0: 0, 8: 3}
	for _, n := range []ib.NodeID{40, 7, 1000, 0, 8} {
		sw.SetRoute(n, want[n])
	}
	sw.SetRoute(40, 1) // re-route overwrites
	want[40] = 1
	for n, p := range want {
		if got := sw.routes[n]; int(got) != p {
			t.Fatalf("route for node %d = %d, want %d", n, got, p)
		}
	}
	for _, n := range []ib.NodeID{1, 39, 999, 1001, -1} {
		func() {
			defer func() {
				r := recover()
				msg := fmt.Sprintf("ibswitch sparse: no route for node %d", n)
				if r != msg {
					t.Fatalf("delivery to unrouted node %d: panic %v, want %q", n, r, msg)
				}
			}()
			pkt := &ib.Packet{Kind: ib.KindData, DestNode: n, Payload: 64}
			sw.ports[0].deliver(pkt, 0, 0)
		}()
	}
}
