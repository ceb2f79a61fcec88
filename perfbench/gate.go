package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

// gate counts what a run attempted and what failed: point×seed runs that
// errored and correctness checks that did not hold. failed_pct and the
// JSON result's correct/attempted/failed fields all come from here. lines
// collects the checks, and other notes, for the readable report.
type gate struct {
	attempted, failed int
	lines             []string
}

// runs records n point×seed runs, failed when err is set.
func (g *gate) runs(n int, what string, err error) {
	g.attempted += n
	if err != nil {
		g.failed += n
		g.lines = append(g.lines, fmt.Sprintf("FAIL %s: %v", what, err))
	}
}

// check records one correctness check.
func (g *gate) check(what string, ok bool, detail string) {
	g.attempted++
	if ok {
		g.lines = append(g.lines, "ok   "+what)
		return
	}
	g.failed++
	g.lines = append(g.lines, fmt.Sprintf("FAIL %s: %s", what, detail))
}

// table checks that a rendered table equals the expected bytes.
func (g *gate) table(what, got, want string) {
	g.check(what, got == want, fmt.Sprintf("tables differ\n--- got ---\n%s--- want ---\n%s", got, want))
}

func (g *gate) failedPct() float64 {
	if g.attempted == 0 {
		return 0
	}
	return 100 * float64(g.failed) / float64(g.attempted)
}

// selfTest proves the table check can fail: a copy of the expected table
// with one byte changed must count as a failure on a scratch gate. If it
// does not, the real gate records a failure.
func (g *gate) selfTest(table string) {
	var probe gate
	corrupt := []byte(table)
	if len(corrupt) > 0 {
		corrupt[len(corrupt)/2] ^= 1
	}
	probe.table("corrupted expected table", table, string(corrupt))
	g.check("gate self-test: a corrupted expected table counts as a failure",
		probe.failed == 1 && probe.attempted == 1, "the corrupted table was accepted")
}

// checkTables checks a pooled RunSpec table: the gate's self-test, then
// equality with the sequential reassembly when that completed.
func checkTables(pooled string, seq seqPass, g *gate) {
	g.selfTest(pooled)
	if seq.text != "" {
		g.table("pooled RunSpec table equals sequential per-point Run reassembly", pooled, seq.text)
	}
}

// goldenGate runs the sweep at the golden windows and compares it with its
// committed golden table when the run's seeds are the golden ones
// (--seed 1).
func goldenGate(cfg config, wl sweepDef, d experiments.Definition, g *gate) {
	gold := goldenOpts()
	if wl.golden == "" || cfg.quick || fmt.Sprint(cfg.options(wl).Seeds) != fmt.Sprint(gold.Seeds) {
		return
	}
	// Runs start at the repository root.
	path := filepath.Join("internal", "experiments", "testdata", wl.golden)
	want, err := os.ReadFile(path)
	if err != nil {
		g.check("golden "+wl.golden, false, err.Error())
		return
	}
	tbl, err := experiments.RunSpec(d, gold)
	g.runs(len(gold.Seeds)*gridSize(d), "golden sweep", err)
	if err != nil {
		return
	}
	g.table("golden "+wl.golden+" (seeds 1,2, 200µs+600µs)", tbl.String(), string(want))
}

func gridSize(d experiments.Definition) int {
	n := 1
	for _, ax := range d.Spec.Sweep {
		n *= ax.Len()
	}
	return n
}
