package main

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/model"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/workload"
)

// The counter pass rebuilds one representative grid point from the public
// topology, traffic and workload constructors, runs it with the round
// barrier (every shard on one goroutine, in turn) and installs
// sim.Engine.Trace on every shard engine to count events by label and
// time each event. It depends on the event labels the simulator gives its
// events: switch:*, link:*, xwire:*, rnic:*, open.arrival.

// outcome is the part of a run's result the rebuilt point must reproduce.
type outcome struct {
	BSGGbps            []float64
	Total              float64
	LSG                stats.Summary
	Offered, Delivered float64
	SojournP99Us       float64
}

func outcomeOf(r experiments.Result) outcome {
	return outcome{
		BSGGbps: r.BSGGbps, Total: r.Total, LSG: r.LSG,
		Offered: r.OfferedGbps, Delivered: r.DeliveredGbps, SojournP99Us: r.SojournP99Us,
	}
}

// scene is a grid point rebuilt for one seed, not yet run.
type scene struct {
	c          *topology.Cluster
	start, end units.Time
	collect    []func(*outcome) // per group, in workload order
}

// rebuild constructs the point the way experiments.Run does for the group
// kinds the benchmark's workloads use (bsg, lsg, alltoall, openbsg):
// groups are built in workload order, then started in that order.
func rebuild(p experiments.Point, opts experiments.Options, seed uint64) (*scene, error) {
	if p.QoS != "" || p.VL1RateLimitGbps > 0 || len(p.Tenants) > 0 || p.Faults != nil {
		return nil, fmt.Errorf("counter pass: the point uses QoS, rate limits, tenants or faults, which rebuild does not cover")
	}
	fab, err := model.Profile(p.Profile)
	if err != nil {
		return nil, err
	}
	pol, err := ibswitch.ParsePolicy(p.Policy)
	if err != nil {
		return nil, err
	}
	c, err := p.Topology.BuildShards(fab, seed, shardsOf(p))
	if err != nil {
		return nil, err
	}
	if c.Coord != nil {
		c.Coord.Parallel = false
	}
	c.SetPolicy(pol)
	c.SetSL2VL(ib.SL2VL{})
	s := &scene{c: c, start: units.Time(0).Add(opts.Warmup), end: units.Time(0).Add(opts.Warmup + opts.Measure)}

	drain, probe, srcs, err := placement(p.Topology)
	if err != nil {
		return nil, err
	}
	var starts []func()
	cursor := 0
	for gi, g := range p.Workload {
		if g.Src != nil || g.Dst != nil {
			return nil, fmt.Errorf("counter pass: workload[%d] overrides placement, which rebuild does not cover", gi)
		}
		sl := ib.SL(g.SL)
		switch g.Kind {
		case experiments.GroupBSG, experiments.GroupAllToAll:
			var pairs [][2]int
			if g.Kind == experiments.GroupBSG {
				n := min(g.Count, len(srcs)-cursor)
				for _, src := range srcs[cursor : cursor+n] {
					pairs = append(pairs, [2]int{src, drain})
				}
				cursor += n
			} else {
				ft := p.Topology.FatTree
				if ft == nil {
					return nil, fmt.Errorf("counter pass: alltoall needs a fat-tree")
				}
				shifts := g.Count
				if shifts == 0 {
					shifts = ft.TotalLeaves() - 1
				}
				h := ft.NumHosts()
				for r := 1; r <= shifts; r++ {
					for i := 0; i < h; i++ {
						pairs = append(pairs, [2]int{i, (i + r*ft.HostsPerLeaf) % h})
					}
				}
			}
			bsgs := make([]*traffic.BSG, len(pairs))
			for i, pr := range pairs {
				b, err := traffic.NewBSG(c.NIC(pr[0]), c.NIC(pr[1]), traffic.BSGConfig{
					Payload: units.ByteSize(g.Payload), SL: sl,
					MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
				})
				if err != nil {
					return nil, err
				}
				bsgs[i] = b
				starts = append(starts, func() { b.Start(s.start) })
			}
			perFlow := g.Kind == experiments.GroupBSG
			s.collect = append(s.collect, func(o *outcome) {
				for _, b := range bsgs {
					b.CloseAt(s.end)
					gb := b.Goodput().Gigabits()
					if perFlow {
						o.BSGGbps = append(o.BSGGbps, gb)
					}
					o.Total += gb
				}
			})
		case experiments.GroupLSG:
			l, err := traffic.NewLSG(c.NIC(probe), ib.NodeID(drain), traffic.LSGConfig{
				Payload: units.ByteSize(g.Payload), SL: sl, Warmup: s.start,
			})
			if err != nil {
				return nil, err
			}
			starts = append(starts, l.Start)
			s.collect = append(s.collect, func(o *outcome) { o.LSG = l.RTT().Summarize() })
		case experiments.GroupOpenBSG:
			n := min(max(g.Count, 1), len(srcs)-cursor)
			var nics []*rnic.RNIC
			for _, src := range srcs[cursor : cursor+n] {
				nics = append(nics, c.NIC(src))
			}
			cursor += n
			ow, err := workload.NewOpen(nics, c.NIC(drain), workload.Config{
				Seed: seed, Group: gi,
				Arrival: workload.Arrival{Kind: g.Arrival.Kind, RateMps: g.Arrival.RateMps, TraceUs: g.Arrival.TraceUs},
				Payload: units.ByteSize(g.Payload), SL: sl,
				Horizon: s.end, Warmup: s.start,
				MsgCost: units.Duration(g.MsgCostNs) * units.Nanosecond,
			})
			if err != nil {
				return nil, err
			}
			starts = append(starts, ow.Start)
			s.collect = append(s.collect, func(o *outcome) {
				ow.CloseAt(s.end)
				o.Offered += ow.OfferedGoodput(s.start, s.end).Gigabits()
				o.Delivered += ow.DeliveredGoodput().Gigabits()
				if h := ow.Sojourns(); h.Count() > 0 {
					o.SojournP99Us = h.QuantileDuration(0.99).Microseconds()
				}
			})
		default:
			return nil, fmt.Errorf("counter pass: group kind %q is not covered by rebuild", g.Kind)
		}
	}
	for _, start := range starts {
		start()
	}
	return s, nil
}

// placement mirrors the experiments layer's role placement for the
// topologies the counter pass rebuilds: the drain port, the latency
// probe's source and the ordered bulk-source slots.
func placement(t topology.Spec) (drain, probe int, srcs []int, err error) {
	switch t.Kind {
	case topology.KindStar:
		return 6, 5, []int{0, 1, 2, 3, 4}, nil
	case topology.KindFatTree:
		ft := t.FatTree
		drain = ft.NumHosts() - 1
		for h := 0; h < ft.HostsPerLeaf; h++ {
			for l := 0; l < ft.TotalLeaves(); l++ {
				if n := ft.HostNode(l, h); n != 0 && n != drain {
					srcs = append(srcs, n)
				}
			}
		}
		return drain, 0, srcs, nil
	}
	return 0, 0, nil, fmt.Errorf("counter pass: topology %s is not covered by rebuild", t.Label())
}

func (s *scene) engines() []*sim.Engine {
	if s.c.Coord == nil {
		return []*sim.Engine{s.c.Eng}
	}
	out := make([]*sim.Engine, s.c.Coord.NumShards())
	for i := range out {
		out[i] = s.c.Coord.Shard(i).Eng
	}
	return out
}

type passMode int

const (
	untraced passMode = iota
	counting          // Engine.Trace counts events by label
	timing            // Engine.Trace also times each event
)

// labelStat is one event label's count and summed self time.
type labelStat struct {
	n  uint64
	ns int64
}

// tracer is the Engine.Trace hook of a counter pass. All shard engines
// share one: the round barrier runs the shards in turn on one goroutine, so
// the gap from one callback to the next is the host time of the first
// event, plus the barrier work when it ends an epoch.
type tracer struct {
	labels map[string]*labelStat
	prev   *labelStat
	prevAt time.Time
}

func (t *tracer) stat(label string) *labelStat {
	s := t.labels[label]
	if s == nil {
		s = &labelStat{}
		t.labels[label] = s
	}
	return s
}

func (t *tracer) count(_ units.Time, label string) { t.stat(label).n++ }

func (t *tracer) time(_ units.Time, label string) {
	now := time.Now()
	if t.prev != nil {
		t.prev.ns += int64(now.Sub(t.prevAt))
	}
	s := t.stat(label)
	s.n++
	t.prev, t.prevAt = s, now
}

// pass is the outcome of one counter pass.
type pass struct {
	wall      time.Duration
	perShard  []uint64
	forwarded uint64
	labels    map[string]*labelStat // nil when untraced
	out       outcome
}

func (p pass) events() uint64 {
	var n uint64
	for _, e := range p.perShard {
		n += e
	}
	return n
}

// counterPass rebuilds the point, runs it under the given mode and reads
// the engine and switch counters. Only the run itself is timed.
func counterPass(p experiments.Point, opts experiments.Options, seed uint64, mode passMode) (pass, error) {
	s, err := rebuild(p, opts, seed)
	if err != nil {
		return pass{}, err
	}
	tr := &tracer{labels: map[string]*labelStat{}}
	for _, e := range s.engines() {
		switch mode {
		case counting:
			e.Trace = tr.count
		case timing:
			e.Trace = tr.time
		}
	}
	runtime.GC()
	t0 := time.Now()
	s.c.RunUntil(s.end)
	wall := time.Since(t0)
	if tr.prev != nil {
		tr.prev.ns += int64(time.Since(tr.prevAt))
	}
	ps := pass{wall: wall}
	for _, e := range s.engines() {
		ps.perShard = append(ps.perShard, e.Processed())
	}
	for _, sw := range s.c.Switches {
		ps.forwarded += sw.ForwardedPackets
	}
	if mode != untraced {
		ps.labels = tr.labels
	}
	for _, collect := range s.collect {
		collect(&ps.out)
	}
	return ps, nil
}

// layerOf maps an event label to the module whose handler it runs.
func layerOf(label string) string {
	switch {
	case strings.HasPrefix(label, "switch:"):
		return "ibswitch"
	case strings.HasPrefix(label, "link:"), strings.HasPrefix(label, "xwire:"):
		return "link"
	case strings.HasPrefix(label, "rnic:"):
		return "rnic"
	case label == "open.arrival":
		return "workload"
	case strings.HasPrefix(label, "rperf:"):
		return "core"
	}
	return "other"
}

func sameCounts(a, b map[string]*labelStat) bool {
	return maps.EqualFunc(a, b, func(x, y *labelStat) bool { return x.n == y.n })
}

// layers is the traced pass. Part 1 reassembles the sweep from public
// calls, sequentially, and times each layer of the experiments stack;
// part 2 runs the counter pass on the workload's representative point.
// Untraced wall and CPU time are never taken from here.
func layers(cfg config, wl sweepDef, d experiments.Definition, rps []experiments.ResolvedPoint, opts experiments.Options, g *gate) ([]metric, error) {
	workers := runtime.GOMAXPROCS(0)
	seq := sequential(d, rps, opts, g)

	runtime.GC()
	t0 := time.Now()
	tbl, err := experiments.RunSpec(d, opts)
	poolWall := time.Since(t0).Seconds()
	g.runs(len(rps)*len(opts.Seeds), "pooled sweep", err)
	if err == nil {
		checkTables(tbl.String(), seq, g)
	}
	goldenGate(cfg, wl, d, g)

	ci := -1
	for i, rp := range rps {
		if reflect.DeepEqual(rp.Labels, wl.counter) {
			ci = i
		}
	}
	if ci < 0 {
		return nil, fmt.Errorf("no grid point of %s has labels %v", wl.id, wl.counter)
	}
	counters, err := counterLayers(cfg, wl, rps[ci].Point, opts, outcomeOf(seq.results[ci*len(opts.Seeds)]), g)
	if err != nil {
		return nil, err
	}
	poolEff := 0.0
	if poolWall > 0 {
		poolEff = seq.runS / (poolWall * float64(workers))
	}
	return append([]metric{
		{name: "experiments.run_s", unit: "s", value: seq.runS, note: "Σ sequential experiments.Run over point×seed"},
		{name: "experiments.run_max_s", unit: "s", value: seq.runMaxS, note: "slowest single run"},
		{name: "experiments.pool_eff", unit: "ratio", value: poolEff, note: fmt.Sprintf("Σ run / (pooled wall %.4g s × %d workers)", poolWall, workers)},
		{name: "experiments.reduce_s", unit: "s", value: seq.reduceS, note: "ReduceSeeds + AssembleInto + render"},
		{name: "topology.build_s", unit: "s", value: seq.buildS, note: "Σ BuildShards over point×seed"},
		{name: "topology.build_mallocs", unit: "count", value: float64(seq.mallocs), note: "heap allocations of those builds"},
		{name: "workload.schedule_s", unit: "s", value: seq.schedS, note: "Σ workload.Schedule of open-loop groups"},
	}, counters...), nil
}

// counterLayers runs the counter pass on the point at the run's first
// seed and derives the sim, ibswitch, link, rnic and workload metrics.
// want is experiments.Run's result for the same point and seed.
func counterLayers(cfg config, wl sweepDef, point experiments.Point, opts experiments.Options, want outcome, g *gate) ([]metric, error) {
	seed := opts.Seeds[0]
	// Passes repeat as untraced, counting, timing triples: at least once,
	// then again while one more triple, if it takes as long as the first,
	// ends by the run's deadline.
	var byMode [3][]pass
	var triple time.Duration
	for rep := 0; ; rep++ {
		if rep > 0 && (cfg.quick || time.Now().Add(triple).After(cfg.deadline)) {
			break
		}
		t0 := time.Now()
		for _, mode := range []passMode{untraced, counting, timing} {
			ps, err := counterPass(point, opts, seed, mode)
			if err != nil {
				return nil, fmt.Errorf("counter pass on %s point %v: %w", wl.id, wl.counter, err)
			}
			byMode[mode] = append(byMode[mode], ps)
		}
		if rep == 0 {
			triple = time.Since(t0)
		}
	}
	ref := byMode[untraced][0]
	all := append(append(append([]pass(nil), byMode[untraced]...), byMode[counting]...), byMode[timing]...)
	sameEvents, sameFwd, sameOut := true, true, true
	for _, ps := range all {
		sameEvents = sameEvents && reflect.DeepEqual(ps.perShard, ref.perShard)
		sameFwd = sameFwd && ps.forwarded == ref.forwarded
		sameOut = sameOut && reflect.DeepEqual(ps.out, ref.out)
	}
	n := len(all)
	g.check(fmt.Sprintf("counter pass: sim.events per shard identical across %d passes, traced and untraced", n), sameEvents, "event counts differ")
	g.check(fmt.Sprintf("counter pass: ibswitch.forwarded identical across %d passes, traced and untraced", n), sameFwd, "forwarded counts differ")
	g.check(fmt.Sprintf("counter pass: results identical across %d passes, traced and untraced", n), sameOut, "results differ")
	traced := append(append([]pass(nil), byMode[counting]...), byMode[timing]...)
	sameLabels, labelSum := true, true
	for _, ps := range traced {
		sameLabels = sameLabels && sameCounts(ps.labels, traced[0].labels)
		var sum uint64
		for _, st := range ps.labels {
			sum += st.n
		}
		labelSum = labelSum && sum == ps.events()
	}
	g.check(fmt.Sprintf("counter pass: per-label counts identical across %d traced passes", len(traced)), sameLabels, "label counts differ")
	g.check("counter pass: per-label counts sum to sim.events", labelSum, "label counts do not sum to the engine's count")
	g.check("counter pass reproduces experiments.Run on the same point and seed", reflect.DeepEqual(ref.out, want),
		fmt.Sprintf("rebuilt %+v, Run %+v", ref.out, want))

	wallOf := func(ps []pass) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = float64(p.wall.Nanoseconds())
		}
		return median(xs)
	}
	events := float64(ref.events())
	plain, counted, timed := wallOf(byMode[untraced]), wallOf(byMode[counting]), wallOf(byMode[timing])
	// The timing hook's own cost per event, removed from every self time
	// so that the layers' self times add up to the untraced wall time.
	hook := (timed - plain) / events

	type agg struct {
		n  uint64
		ns float64
	}
	byLayer := map[string]*agg{}
	byLabel := map[string]*agg{}
	add := func(m map[string]*agg, key string, st *labelStat) {
		a := m[key]
		if a == nil {
			a = &agg{}
			m[key] = a
		}
		a.n += st.n
		a.ns += float64(st.ns)
	}
	for _, ps := range byMode[timing] {
		for label, st := range ps.labels {
			add(byLayer, layerOf(label), st)
			add(byLabel, label, st)
		}
	}
	reps := float64(len(byMode[timing]))
	selfNs := func(a *agg) float64 {
		if a == nil || a.n == 0 {
			return 0
		}
		return a.ns/float64(a.n) - hook
	}
	countOf := func(a *agg) float64 {
		if a == nil {
			return 0
		}
		return float64(a.n) / reps
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		g.lines = append(g.lines, fmt.Sprintf("     label %-14s %-8s events %12.0f  self %8.1f ns/event", l, layerOf(l), countOf(byLabel[l]), selfNs(byLabel[l])))
	}

	var maxShard uint64
	for _, e := range ref.perShard {
		maxShard = max(maxShard, e)
	}
	fwd := float64(ref.forwarded)
	perFwd := func(x float64) float64 {
		if fwd == 0 {
			return 0
		}
		return x / fwd
	}
	sw := byLayer["ibswitch"]
	pt := fmt.Sprintf("point %v seed %d", wl.counter, seed)
	return []metric{
		{name: "sim.events", unit: "count", value: events, note: pt},
		{name: "sim.ns_per_event", unit: "ns/event", value: plain / events, note: "untraced; wall " + wallSpread(byMode[untraced])},
		{name: "sim.shard_imbalance", unit: "ratio", value: float64(maxShard) * float64(len(ref.perShard)) / events, note: fmt.Sprintf("max/mean events over %d shards", len(ref.perShard))},
		{name: "sim.trace_overhead_pct", unit: "%", value: (counted/plain - 1) * 100, note: "counting trace vs untraced"},
		{name: "sim.timed_trace_overhead_pct", unit: "%", value: (timed/plain - 1) * 100, note: fmt.Sprintf("timing trace vs untraced; %.1f ns/event removed from self times", hook)},
		{name: "ibswitch.forwarded", unit: "count", value: fwd, note: "Σ ForwardedPackets"},
		{name: "ibswitch.picks_per_forward", unit: "ratio", value: perFwd(countOf(byLabel["switch:pick"])), note: "switch:pick events per forwarded packet"},
		{name: "ibswitch.self_ns_per_forward", unit: "ns/packet", value: perFwd(selfNs(sw) * countOf(sw)), note: "switch:pick + switch:depart self time per forwarded packet"},
		{name: "link.events", unit: "count", value: countOf(byLayer["link"]), note: "link:* and xwire:*"},
		{name: "link.self_ns_per_event", unit: "ns/event", value: selfNs(byLayer["link"])},
		{name: "rnic.events", unit: "count", value: countOf(byLayer["rnic"]), note: "rnic:*"},
		{name: "rnic.self_ns_per_event", unit: "ns/event", value: selfNs(byLayer["rnic"])},
		{name: "workload.arrivals", unit: "count", value: countOf(byLayer["workload"]), note: "open.arrival"},
	}, nil
}

func wallSpread(ps []pass) string {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.wall.Seconds()
	}
	return spread(xs) + " s"
}
