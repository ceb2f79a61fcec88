package topology

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/units"
)

var updateWiring = flag.Bool("update", false, "rewrite testdata/wiring.golden")

// wiringFingerprint renders everything a builder decides about a fabric:
// the switch order with names and radixes, the link registry order, the
// links every ordered host pair's message (and its ACK) crosses, and that
// message's RTT. The RTT under the jittered testbed profile pins the RNG
// stream labels and their split order, which no structural check sees.
func wiringFingerprint(t *testing.T, c *Cluster) string {
	t.Helper()
	var b strings.Builder
	for _, sw := range c.Switches {
		fmt.Fprintf(&b, "switch %s ports=%d\n", sw.Name(), sw.NumPorts())
	}
	names := c.LinkNames()
	for _, name := range names {
		fmt.Fprintf(&b, "link %s\n", name)
	}
	// Inert fault state on every link: it only counts packets sent.
	faults := make([]*uint64, len(names))
	for i, name := range names {
		faults[i] = &c.faultsOn(c.links[name]).Sent
	}
	before := make([]uint64, len(names))
	n := len(c.NICs)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for i, s := range faults {
				before[i] = *s
			}
			qp := c.NIC(src).CreateQP(ib.RC, ib.NodeID(dst), 0)
			t0 := c.Eng.Now()
			var rtt units.Duration
			c.NIC(src).PostSend(qp, ib.VerbSend, 64, func(at units.Time) { rtt = at.Sub(t0) })
			c.RunUntil(t0.Add(200 * units.Microsecond))
			if rtt == 0 {
				t.Fatalf("message %d->%d never completed", src, dst)
			}
			fmt.Fprintf(&b, "pair %d->%d rtt=%dps via", src, dst, int64(rtt))
			for i, s := range faults {
				switch d := *s - before[i]; {
				case d == 1:
					fmt.Fprintf(&b, " %s", names[i])
				case d > 1:
					fmt.Fprintf(&b, " %s*%d", names[i], d)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestFatTreeWiringFingerprint pins the builder's observable output for
// every topology kind it serves (see wiringFingerprint). The three-tier
// shape is built at one and two shards and must fingerprint identically.
// Regenerate with -update only after an intentional wiring or model change.
func TestFatTreeWiringFingerprint(t *testing.T) {
	tier3 := FatTreeSpec{Tiers: 3, Pods: 2, Leaves: 2, HostsPerLeaf: 2, Spines: 2, Cores: 2, CoreTrunks: 2}
	shapes := []struct {
		name   string
		spec   Spec
		shards []int
	}{
		{"star 7", SpecStar, []int{1}},
		{"twotier 3+4", SpecTwoTier, []int{1}},
		{"fattree 3x3+2s trunks 2", SpecFatTree(FatTreeSpec{Leaves: 3, HostsPerLeaf: 3, Spines: 2, Trunks: 2}), []int{1}},
		{"fattree 2x3 spineless trunks 2", SpecFatTree(FatTreeSpec{Leaves: 2, HostsPerLeaf: 3, Trunks: 2}), []int{1}},
		{"fattree3 2p2x2+2s+2c core_trunks 2", SpecFatTree(tier3), []int{1, 2}},
	}
	var got strings.Builder
	for _, shape := range shapes {
		var ref string
		for _, shards := range shape.shards {
			c, err := shape.spec.BuildShards(model.HWTestbed(), 1, shards)
			if err != nil {
				t.Fatalf("%s: %v", shape.name, err)
			}
			fp := wiringFingerprint(t, c)
			if ref == "" {
				ref = fp
			} else if fp != ref {
				t.Errorf("%s: shards=%d fingerprints differently from shards=%d:\n%s", shape.name, shards, shape.shards[0], fp)
			}
		}
		fmt.Fprintf(&got, "== %s\n%s", shape.name, ref)
	}
	path := filepath.Join("testdata", "wiring.golden")
	if *updateWiring {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("wiring diverged from %s (regenerate with -update only if the change is intentional):\n--- got ---\n%s", path, got.String())
	}
}
