// Command ibsim runs simulated InfiniBand scenarios: the built-in
// experiment registry, user-authored JSON specs, and a free-form
// playground.
//
// Usage:
//
//	ibsim list
//	    List every registered experiment (the paper's figures, the
//	    extension experiments and the fat-tree suite).
//
//	ibsim run -spec file.json | -id all|fig7a[,eq2,...]
//	          [-measure 12ms] [-warmup 3ms] [-seeds 3] [-parallel 0]
//	          [-shards 0] [-format text|csv|jsonl] [-out path] [-generic]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//	    Execute a declarative experiment spec through the generic sweep
//	    engine — arbitrary novel scenarios without recompiling — or
//	    regenerate registered experiments: one id, a comma-separated list,
//	    or `all` (the paper's evaluation, Fig. 4-13 and Eq. 2, in paper
//	    order). Tables stream through the chosen format in id order; text
//	    tables are separated by a blank line. If a spec's id matches a
//	    registered experiment, the registry's table layout is applied (so
//	    an exported figure spec reproduces the figure byte for byte);
//	    -generic forces the one-row-per-point layout regardless. -shards
//	    overrides the shard count of every spec run. -cpuprofile and
//	    -memprofile write pprof profiles of the run, also of a failing one.
//
//	ibsim export -id fig7a [-out path]
//	    Write a registered experiment's spec as JSON: the starting point
//	    for authoring variations.
//
//	ibsim serve -addr 127.0.0.1:8080 [-checkpoint dir] [-max-running 2]
//	            [-max-queued 8] [-job-deadline 0] [-retries 2]
//	            [-retry-base 100ms] [-drain 10s] [-workers 0]
//	            [-measure 12ms] [-warmup 3ms] [-seeds 3]
//	    Run the experiment service: POST a spec JSON to /run and the
//	    reduced table streams back as JSON lines, byte-identical to
//	    `ibsim run -format jsonl`. Per-job panic isolation, deadlines,
//	    retry/backoff, 429 load shedding, sweep checkpointing with
//	    crash-safe resume, and graceful drain on SIGTERM. /healthz and
//	    /stats expose liveness and counters.
//
//	ibsim [-profile hw|sim] [-topo backtoback|star|twotier|fattree]
//	      [-leaves 3 -hosts 4 -spines 2 -trunks 1]
//	      [-policy fcfs|rr|vlarb|spf] [-qos] [-bsgs 5] [-bsg-payload 4096]
//	      [-pretend] [-duration 10ms] [-seed 1] [-runs 1] [-parallel 0]
//	    Playground: one converged scenario, per-run printout.
//
// -runs repeats the configured scenario under consecutive seeds (seed,
// seed+1, ...) and reports each run plus the average, the same protocol the
// paper uses for its three-run figures. -parallel sizes the worker pool the
// runs fan out across (0 = one worker per CPU, 1 = sequential); results are
// byte-identical either way because every run owns an independent engine
// and RNG stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/ibswitch"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "list":
			cmdList(os.Args[2:])
		case "run":
			cmdRun(os.Args[2:])
		case "export":
			cmdExport(os.Args[2:])
		case "serve":
			cmdServe(os.Args[2:])
		case "help": // -h/--help start with '-' and are handled by the flag package
			fs, _ := playgroundFlags()
			fs.Usage()
		default:
			fatal(fmt.Errorf("unknown command %q (valid: list, run, export, serve, or flags for the playground)", os.Args[1]))
		}
		return
	}
	playground(os.Args[1:])
}

// --- ibsim list -------------------------------------------------------------

func cmdList(args []string) {
	fs := flag.NewFlagSet("ibsim list", flag.ExitOnError)
	must(fs.Parse(args))
	defs := experiments.Definitions()
	wid := 0
	for _, d := range defs {
		if len(d.ID) > wid {
			wid = len(d.ID)
		}
	}
	for _, d := range defs {
		tag := " "
		if d.Paper {
			tag = "*"
		}
		fmt.Printf("%s %-*s  %s\n", tag, wid, d.ID, d.Title)
	}
	fmt.Println("\n* = regenerates a figure/table of the paper; run with `ibsim run -id <id>` (`-id all` runs every * entry)")
	fmt.Println("export any entry as a JSON starting point: `ibsim export -id <id>`")
}

// --- ibsim run --------------------------------------------------------------

func cmdRun(args []string) {
	fs := flag.NewFlagSet("ibsim run", flag.ExitOnError)
	specPath := fs.String("spec", "", "path to a JSON experiment spec (this or -id is required)")
	id := fs.String("id", "", "registered experiment id, a comma-separated list of ids, or 'all' for the paper's figures (see `ibsim list`)")
	measure := fs.Duration("measure", 12*time.Millisecond, "simulated measurement window")
	warmup := fs.Duration("warmup", 3*time.Millisecond, "simulated warmup before measuring")
	seeds := fs.Int("seeds", 3, "number of seeds to average (paper: 3 runs)")
	parallel := fs.Int("parallel", 0, "scenario worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	shards := fs.Int("shards", 0, "override each spec's shard count (0 = use the spec; three-tier fat-trees admit up to one shard per pod)")
	format := fs.String("format", "text", "output format: text, csv or jsonl")
	out := fs.String("out", "", "output file (default stdout)")
	generic := fs.Bool("generic", false, "force the generic one-row-per-point layout even for registered ids")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	must(fs.Parse(args))
	if (*specPath == "") == (*id == "") {
		fatal(fmt.Errorf("run: exactly one of -spec or -id is required"))
	}
	newSink, ok := map[string]func(io.Writer) experiments.Sink{
		"text":  experiments.NewTextSink,
		"csv":   experiments.NewCSVSink,
		"jsonl": experiments.NewJSONLSink,
	}[*format]
	if !ok {
		fatal(fmt.Errorf("run: format %q unknown (valid: text, csv, jsonl)", *format))
	}
	specs := runSpecs(*specPath, *id)
	defs := make([]experiments.Definition, len(specs))
	for i, spec := range specs {
		if *shards != 0 {
			if spec.Base == nil {
				fatal(fmt.Errorf("run: -shards needs a spec with a base point; %q carries its shard counts in its variants", spec.ID))
			}
			// Override a copy, never the registry's own base, and
			// re-validate so out-of-range values fail with the spec
			// validator's error, which quotes the valid range derived from
			// the topology (1..Pods for three-tier fat-trees, else 1).
			base := *spec.Base
			base.Shards = *shards
			spec.Base = &base
			if err := spec.Validate(); err != nil {
				fatal(fmt.Errorf("run: -shards on %q: %w", spec.ID, err))
			}
		}
		// A registered id (Register mirrors it into the spec) runs its
		// registry definition, so a custom layout renders exactly as in
		// the committed goldens. -generic bypasses the registry's layout
		// but keeps the spec's identity, so downstream tooling keying on
		// the id still sees it.
		defs[i] = experiments.DefinitionFor(spec)
		if *generic {
			defs[i] = experiments.Definition{ID: defs[i].ID, Title: spec.Title, Spec: spec}
		}
	}
	// ^C / SIGTERM cancels the sweep: dispatch stops, the running
	// simulations abort at their next interrupt poll, and the run exits
	// nonzero with a progress report instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := experiments.Options{
		Measure:  units.Duration(measure.Nanoseconds()) * units.Nanosecond,
		Warmup:   units.Duration(warmup.Nanoseconds()) * units.Nanosecond,
		Parallel: *parallel,
		Ctx:      ctx,
	}
	for s := 1; s <= *seeds; s++ {
		opts.Seeds = append(opts.Seeds, uint64(s))
	}
	finishProfiles := startProfiles(*cpuProfile, *memProfile)
	err := runDefinitions(defs, opts, *out, newSink)
	finishProfiles() // before any exit: a failing run's profile still lands
	if err != nil {
		fatal(err)
	}
}

// runSpecs loads the specs a run executes: the -spec file, or the
// registered specs named by -id ("all" = the paper's figures in paper
// order). An unknown id lists everything runnable, same as `ibsim export`.
func runSpecs(specPath, ids string) []experiments.Spec {
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			fatal(err)
		}
		spec, err := experiments.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
		return []experiments.Spec{spec}
	}
	var specs []experiments.Spec
	if ids == "all" {
		for _, d := range experiments.Definitions() {
			if d.Paper {
				specs = append(specs, d.Spec)
			}
		}
		return specs
	}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		d, ok := experiments.Lookup(id)
		if !ok {
			fatal(fmt.Errorf("run: unknown experiment %q (valid: %s)", id, strings.Join(experiments.IDs(), ", ")))
		}
		specs = append(specs, d.Spec)
	}
	return specs
}

// runDefinitions runs the definitions in order and streams each table
// through one sink as soon as it is assembled. The output file is created
// with the first table, so a run that fails before any table leaves none.
func runDefinitions(defs []experiments.Definition, opts experiments.Options, out string, newSink func(io.Writer) experiments.Sink) (err error) {
	var sink experiments.Sink
	for _, d := range defs {
		tbl, err := experiments.RunSpec(d, opts)
		if err != nil {
			if opts.Ctx.Err() != nil {
				return fmt.Errorf("run: interrupted, no %s table written (%w)", d.ID, err)
			}
			return err
		}
		if sink == nil {
			w := os.Stdout
			if out != "" {
				f, err := os.Create(out)
				if err != nil {
					return err
				}
				defer func() {
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}()
				w = f
			}
			sink = newSink(w)
		}
		if err := tbl.Emit(sink); err != nil {
			return err
		}
	}
	return nil
}

// startProfiles starts the -cpuprofile/-memprofile profiles and returns
// the function that finalizes them. It must run before every exit that
// follows the run's start: fatal exits with os.Exit, which would skip
// defers and leave an unflushed CPU profile and no heap profile, and
// profiling a failing run is exactly when the data matters. The CPU
// profile is the supported way to audit the hot path; the allocation
// profile should show setup only (DESIGN.md "Hot-path memory discipline").
func startProfiles(cpuProfile, memProfile string) func() {
	stopCPU := func() {}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memProfile == "" {
			return
		}
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // flush dead setup objects so live retention reads true
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// --- ibsim export -----------------------------------------------------------

func cmdExport(args []string) {
	fs := flag.NewFlagSet("ibsim export", flag.ExitOnError)
	id := fs.String("id", "", "registered experiment id (see `ibsim list`)")
	out := fs.String("out", "", "output file (default stdout)")
	must(fs.Parse(args))
	d, ok := experiments.Lookup(*id)
	if !ok {
		fatal(fmt.Errorf("export: unknown experiment %q (valid: %s)", *id, strings.Join(experiments.IDs(), ", ")))
	}
	data, err := d.Spec.MarshalIndent()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// --- ibsim serve ------------------------------------------------------------

func cmdServe(args []string) {
	fs := flag.NewFlagSet("ibsim serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory for sweep resume/memo (empty = recompute every sweep)")
	maxRunning := fs.Int("max-running", 2, "concurrently executing sweeps")
	maxQueued := fs.Int("max-queued", 8, "sweeps allowed to wait for a run slot; beyond it POSTs are shed with 429")
	jobDeadline := fs.Duration("job-deadline", 0, "wall-clock cap per (point, seed) job attempt (0 = none)")
	retries := fs.Int("retries", 2, "retries per job after a transient failure")
	retryBase := fs.Duration("retry-base", 100*time.Millisecond, "backoff before the first retry (doubles per retry)")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight jobs on shutdown before hard cancel")
	workers := fs.Int("workers", 0, "job worker pool per sweep (0 = GOMAXPROCS)")
	measure := fs.Duration("measure", 12*time.Millisecond, "default simulated measurement window (override per request: ?measure=)")
	warmup := fs.Duration("warmup", 3*time.Millisecond, "default simulated warmup (override per request: ?warmup=)")
	seeds := fs.Int("seeds", 3, "default seeds to average (override per request: ?seeds=)")
	must(fs.Parse(args))

	srv, err := serve.New(serve.Config{
		CheckpointDir: *checkpoint,
		MaxRunning:    *maxRunning,
		MaxQueued:     *maxQueued,
		JobDeadline:   *jobDeadline,
		Retry:         serve.RetryPolicy{MaxRetries: *retries, BaseDelay: *retryBase, MaxDelay: 5 * time.Second},
		Workers:       *workers,
		Measure:       *measure,
		Warmup:        *warmup,
		Seeds:         *seeds,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ibsim serve: listening on http://%s (POST specs to /run)\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining
	fmt.Fprintf(os.Stderr, "ibsim serve: draining (in-flight jobs get up to %v)\n", *drain)
	srv.Shutdown(*drain)
	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(closeCtx)
	fmt.Fprintln(os.Stderr, "ibsim serve: drained, bye")
}

// --- playground -------------------------------------------------------------

// playgroundConfig holds the playground's flag targets.
type playgroundConfig struct {
	profile, topo, policy         string
	leaves, hosts, spines, trunks int
	qos, pretend                  bool
	bsgs                          int
	bsgPayload                    int64
	duration                      time.Duration
	seed                          uint64
	runs, parallel                int
}

// playgroundFlags builds the flag set. -topology is a true alias of -topo:
// both write the same variable, and the custom usage prints the pair as
// one entry instead of two independent flags.
func playgroundFlags() (*flag.FlagSet, *playgroundConfig) {
	fs := flag.NewFlagSet("ibsim", flag.ExitOnError)
	cfg := &playgroundConfig{}
	fs.StringVar(&cfg.profile, "profile", "hw", "parameter profile: hw (SX6012) or sim (OMNeT-like)")
	fs.StringVar(&cfg.topo, "topo", "star", "fabric shape: "+strings.Join(topology.Kinds(), ", "))
	fs.StringVar(&cfg.topo, "topology", "star", "alias for -topo")
	fs.IntVar(&cfg.leaves, "leaves", 3, "fattree: number of leaf switches")
	fs.IntVar(&cfg.hosts, "hosts", 4, "fattree: hosts per leaf")
	fs.IntVar(&cfg.spines, "spines", 2, "fattree: number of spine switches")
	fs.IntVar(&cfg.trunks, "trunks", 1, "fattree: parallel cables per leaf-spine pair")
	fs.StringVar(&cfg.policy, "policy", "fcfs", "scheduling policy: "+strings.Join(ibswitch.PolicyNames(), ", "))
	fs.BoolVar(&cfg.qos, "qos", false, "dedicated SL/VL QoS (maps SL1 to high-priority VL1)")
	fs.IntVar(&cfg.bsgs, "bsgs", 5, "bulk generators")
	fs.Int64Var(&cfg.bsgPayload, "bsg-payload", 4096, "bulk message size")
	fs.BoolVar(&cfg.pretend, "pretend", false, "replace one BSG with a pretend-LSG (requires -qos)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Millisecond, "simulated run length")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed of the first run")
	fs.IntVar(&cfg.runs, "runs", 1, "number of seeded runs to average")
	fs.IntVar(&cfg.parallel, "parallel", 0, "worker pool size for the runs (0 = GOMAXPROCS, 1 = sequential)")

	aliases := map[string]bool{"topology": true}
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "Usage:")
		fmt.Fprintln(w, "  ibsim list                      list registered experiments")
		fmt.Fprintln(w, "  ibsim run -spec file.json ...   run a declarative JSON experiment spec")
		fmt.Fprintln(w, "  ibsim run -id all|<ids> ...     regenerate registered experiments")
		fmt.Fprintln(w, "  ibsim export -id fig7a ...      write a registered spec as JSON")
		fmt.Fprintln(w, "  ibsim serve -addr host:port ... serve specs over HTTP (crash-safe, resumable)")
		fmt.Fprintln(w, "  ibsim [flags]                   playground: one converged scenario")
		fmt.Fprintln(w, "\nPlayground flags:")
		fs.VisitAll(func(f *flag.Flag) {
			if aliases[f.Name] {
				return
			}
			name := f.Name
			if name == "topo" {
				name = "topo, -topology" // one entry for the alias pair
			}
			fmt.Fprintf(w, "  -%s\n    \t%s (default %q)\n", name, f.Usage, f.DefValue)
		})
	}
	return fs, cfg
}

func playground(args []string) {
	fs, cfg := playgroundFlags()
	must(fs.Parse(args))

	kind, err := topology.ParseKind(cfg.topo)
	if err != nil {
		fatal(err)
	}
	tspec := topology.Spec{Kind: kind}
	maxBSGs := 5 // the legacy topologies expose five bulk-source slots
	if kind == topology.KindFatTree {
		ft := topology.FatTreeSpec{
			Leaves:       cfg.leaves,
			HostsPerLeaf: cfg.hosts,
			Spines:       cfg.spines,
			Trunks:       cfg.trunks,
		}
		if err := ft.Validate(); err != nil {
			fatal(err)
		}
		tspec = topology.SpecFatTree(ft)
		maxBSGs = ft.NumHosts() - 2 // minus the probe and the drain host
	}
	if kind == topology.KindBackToBack {
		maxBSGs = 1
	}

	p := experiments.Point{
		Profile:  cfg.profile,
		Topology: tspec,
		Policy:   cfg.policy,
	}
	var bsgSL, lsgSL uint8
	if cfg.qos {
		p.QoS = experiments.QoSDedicated
		p.Policy = "vlarb"
		bsgSL, lsgSL = 0, 1
	}
	bsgs := cfg.bsgs
	if bsgs > maxBSGs {
		bsgs = maxBSGs
	}
	if cfg.pretend && bsgs > 0 {
		bsgs-- // the pretend LSG takes the last bulk-source slot
	}
	p.Workload = experiments.Workload{
		{Kind: experiments.GroupBSG, Count: bsgs, Payload: cfg.bsgPayload, SL: bsgSL},
	}
	if cfg.pretend {
		p.Workload = append(p.Workload, experiments.Group{Kind: experiments.GroupPretend, SL: lsgSL})
	}
	p.Workload = append(p.Workload, experiments.Group{Kind: experiments.GroupLSG, SL: lsgSL})

	opts := experiments.Options{
		Measure:  units.Duration(cfg.duration.Nanoseconds()) * units.Nanosecond,
		Parallel: cfg.parallel,
	}
	for r := 0; r < cfg.runs; r++ {
		opts.Seeds = append(opts.Seeds, cfg.seed+uint64(r))
	}

	results, err := experiments.RunSeeds(p, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("ibsim: profile=%s topology=%s policy=%s qos=%v runs=%d\n",
		cfg.profile, cfg.topo, p.Policy, cfg.qos, cfg.runs)
	var meds, tails, totals []float64
	for i, res := range results {
		printRun(fmt.Sprintf("seed %d", opts.Seeds[i]), res, cfg.pretend)
		s := res.LSG
		meds = append(meds, s.Median.Microseconds())
		tails = append(tails, s.P999.Microseconds())
		totals = append(totals, res.Total)
	}
	if len(results) > 1 {
		fmt.Printf("average over %d runs:\n", len(results))
		fmt.Printf("  LSG RTT: median %.2fus  p99.9 %.2fus\n", stats.Mean(meds), stats.Mean(tails))
		fmt.Printf("  total bulk goodput: %.1fGbps of 56Gbps\n", stats.Mean(totals))
	}
}

func printRun(name string, res experiments.Result, pretend bool) {
	s := res.LSG
	fmt.Printf("%s:\n", name)
	fmt.Printf("  LSG RTT: median %v  p99.9 %v  (%d samples)\n", s.Median, s.P999, s.Count)
	for i, g := range res.BSGGbps {
		fmt.Printf("  BSG%d goodput: %.2fGbps\n", i+1, g)
	}
	if pretend {
		// Printed even at zero goodput: a starved gamer is exactly what
		// the pretend experiment exists to expose.
		fmt.Printf("  pretend-LSG goodput: %.2fGbps\n", res.Pretend)
	}
	fmt.Printf("  total bulk goodput: %.1fGbps of 56Gbps\n", res.Total)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibsim:", err)
	os.Exit(1)
}
