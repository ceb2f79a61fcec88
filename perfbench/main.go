// Command perfbench is the repository's benchmark. It runs registered
// experiment sweeps through the public experiments API — the path
// `ibsim run -id` takes — and reports either end-to-end metrics of the
// untraced sweep (--trace 0) or per-layer metrics from a separate traced
// pass (--trace 1). Every run also checks that the tables it produced are
// correct. README.md explains the workloads and the metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {"wall_s": {"value": 0.51, "unit": "s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/units"
)

// sweepDef is one named workload of the benchmark.
type sweepDef struct {
	name string
	// id is the registered experiment the sweep runs.
	id string
	// measure and warmup are the simulated windows of every run.
	measure, warmup units.Duration
	// golden names the committed table under internal/experiments/testdata
	// that the experiment must reproduce at seeds 1,2 and the golden
	// windows; empty when it has none.
	golden string
	// counter holds the axis labels of the grid point the counter pass
	// rebuilds and traces.
	counter []string
}

var workloads = []sweepDef{
	{
		name: "star-converged", id: "fig7a",
		measure: 12 * units.Millisecond, warmup: 3 * units.Millisecond,
		counter: []string{"5"},
	},
	{
		name: "fattree512-alltoall", id: "bigfabric-alltoall",
		measure: 300 * units.Microsecond, warmup: 100 * units.Microsecond,
		golden:  "bigfabric-alltoall_sweep.golden",
		counter: []string{"8p8x8+4s+4c"},
	},
	{
		name: "openloop-sweep", id: "loadlatency",
		measure: 600 * units.Microsecond, warmup: 200 * units.Microsecond,
		golden:  "loadlatency_sweep.golden",
		counter: []string{"fattree512", "0.85"},
	},
}

// Quick mode shrinks every window to this, runs one repetition and skips
// the golden gate: enough to prove every metric is produced.
const quickMeasure, quickWarmup = 30 * units.Microsecond, 10 * units.Microsecond

// goldenOpts are the windows and seeds the committed goldens were made at.
func goldenOpts() experiments.Options {
	return experiments.Options{
		Measure: 600 * units.Microsecond,
		Warmup:  200 * units.Microsecond,
		Seeds:   []uint64{1, 2},
	}
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	// deadline is when a run's measuring ends: --seconds after it starts.
	// Everything a run does, gates included, fits before it, except a
	// minimum number of repetitions that overruns a short --seconds.
	deadline time.Time
}

// options are the sweep options of a run: the workload's windows, seeds
// seed and seed+1, and the default worker pool (Parallel 0 = GOMAXPROCS).
func (cfg config) options(wl sweepDef) experiments.Options {
	o := experiments.Options{Measure: wl.measure, Warmup: wl.warmup, Seeds: []uint64{cfg.seed, cfg.seed + 1}}
	if cfg.quick {
		o.Measure, o.Warmup = quickMeasure, quickWarmup
	}
	return o
}

func main() { os.Exit(cli(os.Args[1:])) }

// cli runs the benchmark, or, in a child process started by repeat, one
// repetition.
func cli(args []string) int {
	cfg, err := parseFlags(args)
	if err == nil {
		if kind := os.Getenv(childEnv); kind != "" {
			err = child(cfg, kind, os.Stdout)
		} else {
			err = run(cfg, os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	var cfg config
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed: the sweep averages seeds seed and seed+1")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long the run measures, in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from the traced pass")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny windows, one repetition, no golden gate")
	return cfg, fs.Parse(args)
}

// args renders cfg as the flags parseFlags reads.
func (cfg config) args() []string {
	return []string{"--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--trace", fmt.Sprint(cfg.trace), fmt.Sprintf("--quick=%v", cfg.quick)}
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
	// note is printed beside the value in the readable report.
	note string
}

// resolve checks cfg and resolves its workload's experiment and grid.
func resolve(cfg config) (sweepDef, experiments.Definition, []experiments.ResolvedPoint, error) {
	var wl sweepDef
	for _, c := range workloads {
		if c.name == cfg.workload {
			wl = c
		}
	}
	if wl.name == "" {
		return wl, experiments.Definition{}, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return wl, experiments.Definition{}, nil, fmt.Errorf("--trace must be 0 or 1, not %d", cfg.trace)
	}
	if cfg.seconds < 1 {
		return wl, experiments.Definition{}, nil, fmt.Errorf("--seconds must be at least 1")
	}
	d, ok := experiments.Lookup(wl.id)
	if !ok {
		return wl, d, nil, fmt.Errorf("experiment %q is not registered", wl.id)
	}
	rps, err := d.Spec.Resolve()
	if err != nil {
		return wl, d, nil, fmt.Errorf("resolve %s: %w", wl.id, err)
	}
	return wl, d, rps, nil
}

func run(cfg config, w io.Writer) error {
	cfg.deadline = time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	wl, d, rps, err := resolve(cfg)
	if err != nil {
		return err
	}
	opts := cfg.options(wl)
	fmt.Fprintf(w, "perfbench: workload=%s experiment=%s points=%d seeds=%v window=%v+%v workers=%d trace=%d\n",
		wl.name, wl.id, len(rps), opts.Seeds, opts.Warmup, opts.Measure, runtime.GOMAXPROCS(0), cfg.trace)

	g := &gate{}
	var ms []metric
	if cfg.trace == 1 {
		ms, err = layers(cfg, wl, d, rps, opts, g)
	} else {
		ms, err = endToEnd(cfg, wl, d, rps, opts, g)
	}
	if err != nil {
		return err
	}
	return report(w, g, ms)
}

// report prints the readable table and, last, the JSON result line.
func report(w io.Writer, g *gate, ms []metric) error {
	for _, c := range g.lines {
		fmt.Fprintln(w, c)
	}
	out := map[string]any{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-10s %s\n", m.name, m.value, m.unit, m.note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Fprintf(w, "  %-32s %14.6g %-10s %d of %d point×seed runs and table checks failed\n",
		"failed_pct", g.failedPct(), "%", g.failed, g.attempted)
	line, err := json.Marshal(map[string]any{
		"correct":   g.failed == 0,
		"attempted": g.attempted,
		"failed":    g.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quartiles returns the median and the first and third quartiles of xs
// (inclusive-median method; xs is not modified).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread describes a sample for the readable report.
func spread(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("median of %d, q1 %.6g, q3 %.6g", len(xs), q1, q3)
}
