package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// snap is the process's clock, CPU time and cumulative heap allocation.
type snap struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func take() snap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid "who"
	return snap{at: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: m.TotalAlloc}
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// childEnv, when set, makes the process one child repetition of that
// kind ("sweep" or "setup") instead of a benchmark run.
const childEnv = "PERFBENCH_REP"

// repetition is what one child process measures. Every repetition runs in
// a fresh process, so a sweep starts from an empty heap, as a user's
// `ibsim run` does, and its peak resident set is its own. A set-up
// repetition reports the times of its timed passes (setupPasses).
type repetition struct {
	WallS, CPUS, AllocMB, PeakRSSMB float64   // sweep
	Table                           string    // sweep
	SetupS                          []float64 // setup
	Err                             string
}

// child makes one repetition of the given kind and prints it as JSON.
func child(cfg config, kind string, w io.Writer) error {
	wl, d, rps, err := resolve(cfg)
	if err != nil {
		return err
	}
	opts := cfg.options(wl)
	var r repetition
	switch kind {
	case "sweep":
		s0 := take()
		tbl, err := experiments.RunSpec(d, opts)
		s1 := take()
		if err != nil {
			r.Err = err.Error()
			break
		}
		r.WallS = s1.at.Sub(s0.at).Seconds()
		r.CPUS = (s1.cpu - s0.cpu).Seconds()
		r.AllocMB = float64(s1.alloc-s0.alloc) / (1 << 20)
		r.PeakRSSMB = peakRSSMB()
		r.Table = tbl.String()
	case "setup":
		r.SetupS, err = setupPasses(rps, opts.Seeds)
		if err != nil {
			r.Err = err.Error()
		}
	default:
		return fmt.Errorf("unknown repetition kind %q", kind)
	}
	return json.NewEncoder(w).Encode(r)
}

// repeat makes child repetitions of one kind, one process after another:
// at least minReps, then more while one more, if it takes the median time
// so far, ends by until (exactly one in quick mode). A child that fails to
// report comes back with Err set.
func repeat(cfg config, kind string, minReps int, until time.Time) ([]repetition, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reps []repetition
	var took []float64
	for {
		if cfg.quick && len(reps) == 1 {
			break
		}
		next := time.Duration(median(took) * float64(time.Second))
		if len(reps) >= minReps && time.Now().Add(next).After(until) {
			break
		}
		t0 := time.Now()
		cmd := exec.Command(exe, cfg.args()...)
		cmd.Env = append(os.Environ(), childEnv+"="+kind)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		took = append(took, time.Since(t0).Seconds())
		var r repetition
		if err == nil {
			err = json.Unmarshal(out, &r)
		}
		if err != nil {
			r = repetition{Err: fmt.Sprintf("child process: %v", err)}
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func errOf(r repetition) error {
	if r.Err == "" {
		return nil
	}
	return errors.New(r.Err)
}

// endToEnd times the pooled sweep exactly as a user runs it — RunSpec with
// the default worker pool, in a fresh process — repeating it until the
// run's deadline. The correctness gate's own sweeps and a tenth of what
// remains, for timing set-up the same way, come first. Metrics are medians
// over the repetitions.
func endToEnd(cfg config, wl sweepDef, d experiments.Definition, rps []experiments.ResolvedPoint, opts experiments.Options, g *gate) ([]metric, error) {
	jobs := len(rps) * len(opts.Seeds)
	seq := sequential(d, rps, opts, g)
	goldenGate(cfg, wl, d, g)

	setupReps, err := repeat(cfg, "setup", 1, time.Now().Add(time.Until(cfg.deadline)/10))
	if err != nil {
		return nil, err
	}
	var setups []float64
	var setupErr error
	for _, r := range setupReps {
		if r.Err != "" {
			setupErr = errOf(r)
			continue
		}
		setups = append(setups, r.SetupS...)
	}
	g.check(fmt.Sprintf("set-up: every point×seed builds in %d repetitions", len(setupReps)), setupErr == nil, fmt.Sprint(setupErr))

	sweeps, err := repeat(cfg, "sweep", 3, cfg.deadline)
	if err != nil {
		return nil, err
	}
	var walls, cpus, allocs, peaks []float64
	var first string
	mismatch := 0
	for i, r := range sweeps {
		g.runs(jobs, fmt.Sprintf("sweep repetition %d", i+1), errOf(r))
		if r.Err != "" {
			continue
		}
		walls = append(walls, r.WallS)
		cpus = append(cpus, r.CPUS)
		allocs = append(allocs, r.AllocMB)
		peaks = append(peaks, r.PeakRSSMB)
		if first == "" {
			first = r.Table
		} else if r.Table != first {
			mismatch++
		}
	}
	if len(walls) > 1 {
		g.check(fmt.Sprintf("%d repetitions rendered identical tables", len(walls)), mismatch == 0,
			fmt.Sprintf("%d repetitions differ from the first", mismatch))
	}

	if first != "" {
		checkTables(first, seq, g)
	}

	return []metric{
		{name: "wall_s", unit: "s", value: median(walls), note: spread(walls)},
		{name: "cpu_s", unit: "s", value: median(cpus), note: spread(cpus)},
		{name: "setup_s", unit: "s", value: median(setups), note: spread(setups) + fmt.Sprintf("; %d BuildShards each", jobs)},
		{name: "peak_rss_mb", unit: "MB", value: median(peaks), note: spread(peaks)},
		{name: "alloc_mb", unit: "MB", value: median(allocs), note: spread(allocs)},
		{name: "passed_pct", unit: "%", value: 100 - g.failedPct(), note: "100 - failed_pct"},
	}, nil
}

// setupPasses times set-up passes in one process: one untimed pass, since
// inside a sweep the builds run in a process whose heap has already grown,
// then timed passes for at least a second, at least three.
func setupPasses(rps []experiments.ResolvedPoint, seeds []uint64) ([]float64, error) {
	if _, err := setupOnce(rps, seeds); err != nil {
		return nil, err
	}
	var passes []float64
	start := time.Now()
	for len(passes) < 3 || time.Since(start) < time.Second {
		s, err := setupOnce(rps, seeds)
		if err != nil {
			return nil, err
		}
		passes = append(passes, s)
	}
	return passes, nil
}

// setupOnce times one Point.Topology.BuildShards per point×seed with the
// run's own parameters and returns the summed time.
func setupOnce(rps []experiments.ResolvedPoint, seeds []uint64) (float64, error) {
	fabs := make([]model.FabricParams, len(rps))
	for i, rp := range rps {
		fab, err := model.Profile(rp.Point.Profile)
		if err != nil {
			return 0, err
		}
		fabs[i] = fab
	}
	var total time.Duration
	for i, rp := range rps {
		for _, seed := range seeds {
			t0 := time.Now()
			_, err := rp.Point.Topology.BuildShards(fabs[i], seed, shardsOf(rp.Point))
			total += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("build point %v seed %d: %w", rp.Labels, seed, err)
			}
		}
	}
	return total.Seconds(), nil
}

func shardsOf(p experiments.Point) int {
	if p.Shards == 0 {
		return 1
	}
	return p.Shards
}

// seqPass is the sweep reassembled from public calls, one point×seed at a
// time: per-run results, the rendered table and the time of each layer.
type seqPass struct {
	text    string
	results []experiments.Result // index point*len(seeds) + seed
	runS    float64              // Σ experiments.Run
	runMaxS float64              // slowest experiments.Run
	reduceS float64              // ReduceSeeds + AssembleInto + render
	buildS  float64              // Σ Topology.BuildShards, timed apart from Run
	mallocs uint64               // heap allocations of those builds
	schedS  float64              // Σ workload.Schedule of the open-loop groups
}

// sequential reassembles the sweep: per point×seed it times a standalone
// BuildShards and workload.Schedule (the set-up Run repeats inside), then
// experiments.Run with the sweep's own options; then ReduceSeeds,
// AssembleInto and render. A failed run leaves text empty.
func sequential(d experiments.Definition, rps []experiments.ResolvedPoint, opts experiments.Options, g *gate) seqPass {
	var sp seqPass
	seeds := len(opts.Seeds)
	sp.results = make([]experiments.Result, len(rps)*seeds)
	end := opts.Warmup + opts.Measure
	failed := false
	for i, rp := range rps {
		fab, err := model.Profile(rp.Point.Profile)
		if err != nil {
			g.runs(seeds, fmt.Sprintf("point %v", rp.Labels), err)
			failed = true
			continue
		}
		for j, seed := range opts.Seeds {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			_, err := rp.Point.Topology.BuildShards(fab, seed, shardsOf(rp.Point))
			sp.buildS += time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)
			sp.mallocs += m1.Mallocs - m0.Mallocs
			if err != nil {
				g.runs(1, fmt.Sprintf("build point %v seed %d", rp.Labels, seed), err)
				failed = true
				continue
			}
			for gi, grp := range rp.Point.Workload {
				if grp.Arrival == nil {
					continue
				}
				a := workload.Arrival{Kind: grp.Arrival.Kind, RateMps: grp.Arrival.RateMps, TraceUs: grp.Arrival.TraceUs}
				t0 := time.Now()
				workload.Schedule(seed, gi, a, units.Time(0).Add(end))
				sp.schedS += time.Since(t0).Seconds()
			}
			t0 = time.Now()
			res, err := experiments.Run(rp.Point, opts, seed)
			el := time.Since(t0).Seconds()
			g.runs(1, fmt.Sprintf("sequential Run point %v seed %d", rp.Labels, seed), err)
			if err != nil {
				failed = true
				continue
			}
			sp.runS += el
			sp.runMaxS = max(sp.runMaxS, el)
			sp.results[i*seeds+j] = res
		}
	}
	if failed {
		return sp
	}
	t0 := time.Now()
	pts := make([]experiments.PointResult, len(rps))
	for i, rp := range rps {
		pts[i] = experiments.PointResult{Point: rp.Point, Labels: rp.Labels, M: experiments.ReduceSeeds(sp.results[i*seeds : (i+1)*seeds])}
	}
	t := experiments.TableShell(d)
	err := experiments.AssembleInto(t, d, pts)
	text := t.String()
	sp.reduceS = time.Since(t0).Seconds()
	if err != nil {
		g.check("reassembled table assembles", false, err.Error())
		return sp
	}
	sp.text = text
	return sp
}
