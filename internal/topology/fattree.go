// Fat-tree fabric generation: one layered builder for every switched
// topology. Its unit is the pod of Solnushkin's "Automated Design of
// Two-Layer Fat-Tree Networks", specialized to the paper's hardware: a row
// of leaf switches with hosts below and a row of spine switches above,
// every leaf connected to every spine by a configurable number of parallel
// trunks. A two-layer fabric is one pod; a three-tier fabric is Pods of
// them under a layer of core switches (see fattree3.go for the core cut
// and the shard partitioner). Star and TwoTier are one- and two-leaf
// spineless pods, so every topology shares one wiring and routing
// derivation.
package topology

import (
	"fmt"
	"strconv"

	"repro/internal/ib"
	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
)

// FatTreeSpec configures the fabric generator. The JSON form is part of
// the declarative experiment Spec API (see internal/experiments).
type FatTreeSpec struct {
	// Leaves is the number of leaf (ToR) switches.
	Leaves int `json:"leaves"`
	// HostsPerLeaf is the number of hosts below each leaf.
	HostsPerLeaf int `json:"hosts_per_leaf"`
	// Spines is the number of spine switches. Zero builds a degenerate
	// spineless fabric: a single leaf (the star rack), or two leaves joined
	// by one direct trunk (the paper's two-switch setup).
	Spines int `json:"spines,omitempty"`
	// Trunks is the number of parallel cables between each leaf-spine pair
	// (or between the two leaves of a spineless fabric). Defaults to 1.
	Trunks int `json:"trunks,omitempty"`
	// MaxPorts bounds the radix of every switch in the fabric (0 = no
	// bound). The paper's SX6012 has 12 ports; specs exceeding the budget
	// are rejected rather than silently built.
	MaxPorts int `json:"max_ports,omitempty"`
	// HostLink overrides the host-to-leaf cable parameters (nil = the
	// fabric default, par.Link).
	HostLink *model.LinkParams `json:"host_link,omitempty"`
	// TrunkLink overrides the leaf-to-spine (or leaf-to-leaf) cable
	// parameters (nil = the fabric default).
	TrunkLink *model.LinkParams `json:"trunk_link,omitempty"`
	// Tiers selects the fabric depth: 0 (the default) or 2 builds the
	// two-layer fabric above; 3 builds Pods copies of the two-layer block
	// under a layer of core switches (see fattree3.go). Three-tier fabrics
	// are the ones the shard partitioner can cut.
	Tiers int `json:"tiers,omitempty"`
	// Pods is the number of two-layer blocks of a three-tier fabric
	// (required, ≥ 2, when Tiers is 3).
	Pods int `json:"pods,omitempty"`
	// Cores is the number of core switches of a three-tier fabric
	// (default: Spines).
	Cores int `json:"cores,omitempty"`
	// CoreTrunks is the number of parallel cables between each spine-core
	// pair (default: Trunks).
	CoreTrunks int `json:"core_trunks,omitempty"`
	// CoreLink overrides the spine-to-core cable parameters (nil =
	// TrunkLink, else the fabric default). Its propagation delay is the
	// conservative lookahead when the fabric is sharded, so long core
	// cables buy coarse synchronization epochs.
	CoreLink *model.LinkParams `json:"core_link,omitempty"`
}

// withDefaults fills unset optional fields.
func (s FatTreeSpec) withDefaults() FatTreeSpec {
	if s.Trunks == 0 {
		s.Trunks = 1
	}
	if s.Tiers == 3 {
		if s.Cores == 0 {
			s.Cores = s.Spines
		}
		if s.CoreTrunks == 0 {
			s.CoreTrunks = s.Trunks
		}
	}
	return s
}

// uplinks is the number of up-facing ports on each leaf.
func (s FatTreeSpec) uplinks() int {
	if s.Spines > 0 {
		return s.Spines * s.Trunks
	}
	if s.Leaves == 2 {
		return s.Trunks
	}
	return 0
}

// Validate checks structural sanity and the port budget.
func (s FatTreeSpec) Validate() error {
	s = s.withDefaults()
	switch s.Tiers {
	case 0, 2, 3:
	default:
		return fmt.Errorf("topology: fat-tree tiers %d out of range (valid: 2, 3)", s.Tiers)
	}
	if s.Tiers != 3 && (s.Pods != 0 || s.Cores != 0 || s.CoreTrunks != 0 || s.CoreLink != nil) {
		return fmt.Errorf("topology: pods/cores/core_trunks/core_link require tiers 3")
	}
	if s.Leaves < 1 {
		return fmt.Errorf("topology: fat-tree needs at least one leaf, got %d", s.Leaves)
	}
	if s.HostsPerLeaf < 1 {
		return fmt.Errorf("topology: fat-tree needs at least one host per leaf, got %d", s.HostsPerLeaf)
	}
	if s.Spines < 0 || s.Trunks < 1 {
		return fmt.Errorf("topology: fat-tree spine/trunk counts must be non-negative (spines=%d trunks=%d)", s.Spines, s.Trunks)
	}
	if s.Tiers == 3 {
		return s.validateThreeTier()
	}
	if s.Spines == 0 && s.Leaves > 2 {
		return fmt.Errorf("topology: %d leaves need at least one spine (only 1- and 2-leaf fabrics may be spineless)", s.Leaves)
	}
	if s.MaxPorts > 0 {
		if r := s.HostsPerLeaf + s.uplinks(); r > s.MaxPorts {
			return fmt.Errorf("topology: leaf radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if s.Spines > 0 {
			if r := s.Leaves * s.Trunks; r > s.MaxPorts {
				return fmt.Errorf("topology: spine radix %d exceeds port budget %d", r, s.MaxPorts)
			}
		}
	}
	return nil
}

// validateThreeTier checks the pod/core structure; the caller has already
// applied defaults and validated the leaf-layer fields.
func (s FatTreeSpec) validateThreeTier() error {
	if s.Pods < 2 {
		return fmt.Errorf("topology: a three-tier fat-tree needs at least two pods, got %d", s.Pods)
	}
	if s.Spines < 1 {
		return fmt.Errorf("topology: a three-tier fat-tree needs at least one spine per pod, got %d", s.Spines)
	}
	if s.Cores < 1 || s.CoreTrunks < 1 {
		return fmt.Errorf("topology: three-tier core counts must be positive (cores=%d core_trunks=%d)", s.Cores, s.CoreTrunks)
	}
	if s.MaxPorts > 0 {
		if r := s.HostsPerLeaf + s.Spines*s.Trunks; r > s.MaxPorts {
			return fmt.Errorf("topology: leaf radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if r := s.Leaves*s.Trunks + s.Cores*s.CoreTrunks; r > s.MaxPorts {
			return fmt.Errorf("topology: spine radix %d exceeds port budget %d", r, s.MaxPorts)
		}
		if r := s.Pods * s.Spines * s.CoreTrunks; r > s.MaxPorts {
			return fmt.Errorf("topology: core radix %d exceeds port budget %d", r, s.MaxPorts)
		}
	}
	return nil
}

// NumHosts is the total host count of the fabric.
func (s FatTreeSpec) NumHosts() int {
	n := s.Leaves * s.HostsPerLeaf
	if s.Tiers == 3 {
		n *= s.Pods
	}
	return n
}

// TotalLeaves is the fabric-wide leaf count: Leaves per pod times the pod
// count for three-tier fabrics, plain Leaves otherwise.
func (s FatTreeSpec) TotalLeaves() int {
	if s.Tiers == 3 {
		return s.Leaves * s.Pods
	}
	return s.Leaves
}

// HostNode returns the node id of host h (0-based) under leaf l.
func (s FatTreeSpec) HostNode(l, h int) int { return l*s.HostsPerLeaf + h }

func (s FatTreeSpec) String() string {
	if s.Tiers == 3 {
		return fmt.Sprintf("%dp%dx%d+%ds+%dc", s.Pods, s.Leaves, s.HostsPerLeaf, s.Spines, s.withDefaults().Cores)
	}
	return fmt.Sprintf("%dx%d+%ds", s.Leaves, s.HostsPerLeaf, s.Spines)
}

// FatTree builds a fat-tree with automatically derived destination-based
// routing: two-layer on the plain single engine, or (Tiers == 3) the
// three-tier fabric on one shard. Node numbering is leaf-major: host h of
// (global) leaf l is node l*HostsPerLeaf + h.
func FatTree(par model.FabricParams, spec FatTreeSpec, seed uint64) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec.build(par, seed, 1, nil, nil)
}

func resolveLink(par model.FabricParams, override *model.LinkParams) model.LinkParams {
	if override != nil {
		return *override
	}
	return par.Link
}

// build is the layered builder behind every switched topology. It wires
// Pods pods (one for a two-layer fabric) of leaves and spines, adds the
// core layer over cross-shard channels when Tiers is 3, and derives the
// routes. hosts[l] is the host count under leaf l of each pod (nil:
// HostsPerLeaf under every leaf). legacy, when non-nil, supplies leaf l's
// historical switch name and RNG label in place of the generated ones.
// Two-layer fabrics run on a plain engine; three-tier fabrics on `shards`
// engines under a sim.Coordinator (drive them with Cluster.RunUntil).
//
// Construction order is a pure function of the spec, never of the shard
// count: switches (each pod's leaves then spines, then the cores; their
// RNG streams split in that order), then NICs in node order with their
// host wires, then intra-pod trunks, then spine-core channels in (pod,
// spine, core, trunk) order, which fixes the mailbox channel ids.
//
// Port numbering: leaf l uses ports 0..hosts[l]-1 for its hosts, then
// hosts[l]+s*Trunks+t toward spine s (a spineless two-leaf pod puts its
// direct trunks at hosts[l]+t); spine ports are l*Trunks+t down to leaf l,
// then Leaves*Trunks+k*CoreTrunks+t up to core k; core ports are
// (p*Spines+s)*CoreTrunks+t toward spine s of pod p.
//
// Routing is destination-based and deterministic. On the destination's
// own leaf the route is the host port. Any other leaf goes up by
// destination modulo its uplinks; a spine reaches a leaf of its own pod on
// trunk dst%Trunks and goes up by destination modulo its core uplinks
// otherwise; a core reaches the destination pod via spine dst%Spines. Each
// modulo-chosen route also registers its candidate group as the failover
// set (one shared slice per group), so failed-over traffic spreads over
// the survivors by the same rule. Because every choice is a pure function
// of the destination, a flow stays single-path and in order, and a run's
// schedule is a pure function of (spec, seed).
func (spec FatTreeSpec) build(par model.FabricParams, seed uint64, shards int, hosts []int, legacy func(l int) (name, rngLabel string)) (*Cluster, error) {
	spec = spec.withDefaults()
	if hosts == nil {
		hosts = make([]int, spec.Leaves)
		for l := range hosts {
			hosts[l] = spec.HostsPerLeaf
		}
	}
	c := &Cluster{Params: par, root: rng.New(seed)}
	pods, podShard, coreShard := 1, []int{0}, []int(nil)
	engine := func(int) *sim.Engine { return c.Eng }
	if spec.Tiers == 3 {
		plan, err := Partition(spec, shards, par)
		if err != nil {
			return nil, err
		}
		coord, err := sim.NewCoordinator(shards, plan.Lookahead)
		if err != nil {
			return nil, err
		}
		for i := 0; i < shards; i++ {
			// Label each shard engine so invariant reports name the shard.
			coord.Shard(i).Eng.SetLabel(fmt.Sprintf("shard%d", i))
		}
		c.Eng, c.Coord = coord.Shard(0).Eng, coord
		pods, podShard, coreShard = spec.Pods, plan.PodShard, plan.CoreShard
		engine = func(i int) *sim.Engine { return coord.Shard(i).Eng }
	} else {
		c.Eng = sim.New()
	}
	hostLink := resolveLink(par, spec.HostLink)
	trunkLink := resolveLink(par, spec.TrunkLink)
	uplinks, trunks := spec.uplinks(), spec.Trunks
	coreUplinks, coreTrunks := spec.Cores*spec.CoreTrunks, spec.CoreTrunks
	name := func(role string, p, i int) string {
		if spec.Tiers == 3 && role != "core" {
			return "pod" + strconv.Itoa(p) + "." + role + strconv.Itoa(i)
		}
		return role + strconv.Itoa(i)
	}
	newSwitch := func(eng *sim.Engine, name, rngLabel string, ports int) *ibswitch.Switch {
		sw := ibswitch.New(eng, name, par.Switch, ports, c.RNG(rngLabel))
		c.Switches = append(c.Switches, sw)
		return sw
	}

	// Switches.
	c.Switches = make([]*ibswitch.Switch, 0, pods*(len(hosts)+spec.Spines)+spec.Cores)
	leaves := make([][]*ibswitch.Switch, pods)
	spines := make([][]*ibswitch.Switch, pods)
	for p := range leaves {
		eng := engine(podShard[p])
		leaves[p] = make([]*ibswitch.Switch, len(hosts))
		for l := range hosts {
			var n, label string
			if legacy != nil {
				n, label = legacy(l)
			} else {
				n = name("leaf", p, l)
				label = n
			}
			leaves[p][l] = newSwitch(eng, n, label, hosts[l]+uplinks)
		}
		spines[p] = make([]*ibswitch.Switch, spec.Spines)
		for s := range spines[p] {
			n := name("spine", p, s)
			spines[p][s] = newSwitch(eng, n, n, len(hosts)*trunks+coreUplinks)
		}
	}
	cores := make([]*ibswitch.Switch, spec.Cores)
	for k := range cores {
		n := name("core", 0, k)
		cores[k] = newSwitch(engine(coreShard[k]), n, n, pods*spec.Spines*coreTrunks)
	}

	// Hosts, in node order (pod-major = global-leaf-major).
	node := 0
	for p := range leaves {
		eng := engine(podShard[p])
		for l, sw := range leaves[p] {
			for h := 0; h < hosts[l]; h++ {
				nic := c.addNICOn(eng, node)
				up := link.NewWire(eng, fmt.Sprintf("n%d->%s", node, sw.Name()),
					hostLink.Bandwidth, hostLink.Propagation, sw.Ingress(h), sw.IngressGate(h))
				nic.Attach(up)
				c.registerWire(eng, up, sw.IngressGate(h), nil, 0)
				sw.AttachPeer(h, hostLink, nic, link.Unlimited{})
				c.registerWire(eng, sw.EgressWire(h), nil, sw, h)
				node++
			}
		}
	}

	// Intra-pod trunks: plain local wires.
	if spec.Spines == 0 && len(hosts) == 2 {
		for t := 0; t < trunks; t++ {
			c.trunk(c.Eng, trunkLink, leaves[0][0], hosts[0]+t, leaves[0][1], hosts[1]+t)
		}
	}
	for p := range leaves {
		eng := engine(podShard[p])
		for l, leaf := range leaves[p] {
			for s, spine := range spines[p] {
				for t := 0; t < trunks; t++ {
					c.trunk(eng, trunkLink, leaf, hosts[l]+s*trunks+t, spine, l*trunks+t)
				}
			}
		}
	}

	// Spine-core links: always conservative channels, both directions.
	coreLk := spec.coreLink(par)
	for p := range spines {
		for s, spine := range spines[p] {
			for k, core := range cores {
				for t := 0; t < coreTrunks; t++ {
					spinePort := len(hosts)*trunks + k*coreTrunks + t
					corePort := (p*spec.Spines+s)*coreTrunks + t
					if err := crossAttach(c, coreLk, spine, podShard[p], spinePort, core, coreShard[k], corePort); err != nil {
						return nil, err
					}
					if err := crossAttach(c, coreLk, core, coreShard[k], corePort, spine, podShard[p], spinePort); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Routes, derived for every (switch, destination) pair.
	leafUp := make([][]int, len(hosts))
	spineDown := make([][]int, len(hosts))
	for l := range hosts {
		leafUp[l] = portRange(hosts[l], uplinks)
		spineDown[l] = portRange(l*trunks, trunks)
	}
	spineUp := portRange(len(hosts)*trunks, coreUplinks)
	coreDown := make([][]int, spec.Pods) // none without cores
	for dp := range coreDown {
		coreDown[dp] = portRange(dp*spec.Spines*coreTrunks, spec.Spines*coreTrunks)
	}
	node = 0
	for dp := range leaves {
		for dl := range hosts {
			for dh := 0; dh < hosts[dl]; dh++ {
				d := ib.NodeID(node)
				for p := range leaves {
					for l, leaf := range leaves[p] {
						if p == dp && l == dl {
							leaf.SetRoute(d, dh)
							continue
						}
						leaf.SetRoute(d, hosts[l]+node%uplinks)
						if len(leafUp[l]) > 1 {
							leaf.SetUplinks(d, leafUp[l])
						}
					}
					for _, spine := range spines[p] {
						if p == dp {
							spine.SetRoute(d, dl*trunks+node%trunks)
							if len(spineDown[dl]) > 1 {
								spine.SetUplinks(d, spineDown[dl])
							}
						} else {
							spine.SetRoute(d, len(hosts)*trunks+node%coreUplinks)
							if len(spineUp) > 1 {
								spine.SetUplinks(d, spineUp)
							}
						}
					}
				}
				for _, core := range cores {
					core.SetRoute(d, (dp*spec.Spines+node%spec.Spines)*coreTrunks+node%coreTrunks)
					if len(coreDown[dp]) > 1 {
						core.SetUplinks(d, coreDown[dp])
					}
				}
				node++
			}
		}
	}
	return c, nil
}

// trunk wires one local cable between port pa of a and port pb of b, both
// directions, registering a's egress before b's.
func (c *Cluster) trunk(eng *sim.Engine, lk model.LinkParams, a *ibswitch.Switch, pa int, b *ibswitch.Switch, pb int) {
	a.AttachPeer(pa, lk, b.Ingress(pb), b.IngressGate(pb))
	c.registerWire(eng, a.EgressWire(pa), b.IngressGate(pb), a, pa)
	b.AttachPeer(pb, lk, a.Ingress(pa), a.IngressGate(pa))
	c.registerWire(eng, b.EgressWire(pb), a.IngressGate(pa), b, pb)
}
