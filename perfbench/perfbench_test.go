package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the child process of a
// repetition, as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(cli(os.Args[1:]))
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// TestQuickMode runs every workload at tiny windows in both modes and
// checks that every metric BENCHMARK.json declares is printed, finite and
// carries its declared unit, and nothing else is.
func TestQuickMode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			var out bytes.Buffer
			cfg := config{workload: w.Name, seed: uint64(i + 1), seconds: 1, trace: trace, quick: true}
			if err := run(cfg, &out); err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%d: metric %s is %v", w.Name, trace, m.Name, *got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s has unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestGateCountsCorruptTable feeds the table check a corrupted expected
// table and checks that it counts as a failure.
func TestGateCountsCorruptTable(t *testing.T) {
	var g gate
	g.table("corrupt", "a b\n1 2\n", "a b\n1 3\n")
	g.table("intact", "a b\n1 2\n", "a b\n1 2\n")
	if g.attempted != 2 || g.failed != 1 || g.failedPct() != 50 {
		t.Fatalf("attempted=%d failed=%d failed_pct=%v, want 2, 1, 50", g.attempted, g.failed, g.failedPct())
	}
}
