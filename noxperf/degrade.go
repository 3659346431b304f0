package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/physical"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// degradeParams is one noxfault -degrade sweep configuration. The full-scale
// values are `noxfault -arch all -width 8 -height 8 -degrade 24 -kill 2000
// -cycles 6000 -load 0.04` with every other flag at its default.
type degradeParams struct {
	topo        noc.Topology
	bufferDepth int
	cycles      int64
	load        float64
	multi       float64
	drain       int64
	watchdog    int64
	killAt      int64
	maxDead     int // K: cells kill 0..K links
	seed        uint64
	rt          network.RetransmitConfig
}

func newDegradeParams(seed uint64, tiny bool) degradeParams {
	p := degradeParams{
		topo: noc.Topology{Width: 8, Height: 8}, bufferDepth: 4,
		cycles: 6000, load: 0.04, multi: 0.25, drain: 20000, watchdog: 4000,
		killAt: 2000, maxDead: 24, seed: seed,
	}
	if tiny {
		p.topo = noc.Topology{Width: 4, Height: 4}
		p.cycles, p.killAt, p.maxDead = 800, 300, 4
	}
	p.rt = network.RetransmitConfig{Timeout: int64(4*(p.topo.Width+p.topo.Height) + 64), Retries: 4}
	return p
}

// degradeLinks is noxfault's kill sequence: every undirected East/South
// mesh link, Fisher-Yates shuffled by the seed; cell f kills the first f.
func degradeLinks(topo noc.Topology, seed uint64) [][2]noc.NodeID {
	var links [][2]noc.NodeID
	for id := noc.NodeID(0); int(id) < topo.Nodes(); id++ {
		if nb, ok := topo.Neighbor(id, noc.East); ok {
			links = append(links, [2]noc.NodeID{id, nb})
		}
		if nb, ok := topo.Neighbor(id, noc.South); ok {
			links = append(links, [2]noc.NodeID{id, nb})
		}
	}
	rng := sim.NewRNG(seed ^ 0x44454752) // "DEGR"
	for i := len(links) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		links[i], links[j] = links[j], links[i]
	}
	return links
}

// dcell is one degradation cell's outcome, with the fields noxfault's
// report and CSV print; its %+v rendering is the cell's digest input.
type dcell struct {
	Arch          router.Arch
	Failed        int
	OK            bool
	Why           string
	Injected      int64
	Delivered     int64
	DeliveredFlit int64
	Undeliverable int64
	Violations    int64
	Kinds         [check.NumKinds]int64
	Retransmits   int64
	Acked         int64
	AckLost       int64
	Exhausted     int64
	Dupes         int64
	Epochs        int64
	LastEpoch     int64
	Partitioned   int
	LatSum        int64
	LatN          int64
	EndCycle      int64
	Counters      power.Counters
}

func (c dcell) meanLat() float64 {
	if c.LatN == 0 {
		return 0
	}
	return float64(c.LatSum) / float64(c.LatN)
}

func (c dcell) thpt() float64 {
	if c.EndCycle == 0 {
		return 0
	}
	return float64(c.Delivered) / float64(c.EndCycle)
}

// cellLayers is what the traced run measures inside one cell: time spent in
// each public network call and the allocations of network.Build.
type cellLayers struct {
	build, inject, step, epochStep, drain, invariants time.Duration
	buildAllocs                                       uint64
	activeSum                                         int64 // Σ Observer active counts
	components                                        int
	shards                                            int
}

// runDegradeCell drives one cell the way noxfault's runDegradeCell does:
// check.New, fault.NewInjector, network.Build with retransmission,
// self-similar sources, Inject/Step for the traffic window, then
// DrainChecked and CheckInvariants. With tr non-nil every call is timed
// into lay and recorded as spans (the per-cycle Inject/Step pairs as one
// span, epoch steps as their own).
func runDegradeCell(arch router.Arch, f int, seq [][2]noc.NodeID, p degradeParams, tr *tracer, lay *cellLayers) (c dcell) {
	c.Arch, c.Failed = arch, f
	spec := fault.Spec{Seed: p.seed}
	for _, l := range seq[:f] {
		spec.DeadLinks = append(spec.DeadLinks, fault.DeadLink{A: l[0], B: l[1], At: p.killAt})
	}
	sp := tr.begin("check", "check.New")
	ck := check.New(check.All())
	tr.end(sp)
	sp = tr.begin("fault", "fault.NewInjector")
	inj := fault.NewInjector(spec)
	tr.end(sp)

	cfg := network.Config{Topo: p.topo, Arch: arch, BufferDepth: p.bufferDepth, Check: ck, Fault: inj, Retransmit: &p.rt}
	if tr != nil {
		cfg.Observer = func(_ int64, active int) { lay.activeSum += int64(active) }
	}
	var ms0 uint64
	if tr != nil {
		ms0 = mallocs()
	}
	sp = tr.begin("network", "network.Build")
	t0 := time.Now()
	net, err := network.Build(cfg)
	if tr != nil {
		lay.build += time.Since(t0)
		lay.buildAllocs += mallocs() - ms0
	}
	tr.end(sp)
	if err != nil {
		c.Why = "build: " + err.Error()
		return c
	}
	defer net.Close()
	if tr != nil {
		lay.shards = net.Shards()
		// A freshly built kernel schedules every component, so its active
		// count is the component total.
		lay.components = net.Kernel().ActiveComponents()
	}
	net.OnDeliver = func(pk *noc.Packet, cycle int64) {
		c.LatSum += cycle - pk.CreateCycle
		c.LatN++
		c.DeliveredFlit += int64(pk.Length)
	}
	src := newDegradeTraffic(net.Cores(), p.load, spec.Seed)
	if tr == nil {
		for cyc := int64(0); cyc < p.cycles; cyc++ {
			src.injectCycle(net, p.multi)
			net.Step()
		}
	} else {
		sp = tr.begin("network", "network.Inject+Step")
		for cyc := int64(0); cyc < p.cycles; cyc++ {
			t0 := time.Now()
			src.injectCycle(net, p.multi)
			t1 := time.Now()
			epochs := net.Epochs()
			net.Step()
			t2 := time.Now()
			lay.inject += t1.Sub(t0)
			if net.Epochs() != epochs {
				lay.epochStep += t2.Sub(t1)
				tr.record("network", "network.Step (epoch)", t1, t2)
			} else {
				lay.step += t2.Sub(t1)
			}
		}
		tr.end(sp)
	}
	finishDegradeCell(&c, net, ck, p, tr, lay)
	return c
}

// finishDegradeCell is noxfault's shared cell epilogue: drain, sweep the
// invariants, and classify. A cell is ok when it ends with zero violations
// and every injected packet delivered or retired as undeliverable.
func finishDegradeCell(c *dcell, net *network.Network, ck *check.Checker, p degradeParams, tr *tracer, lay *cellLayers) {
	defer func() {
		c.Injected, c.Delivered = ck.Injected(), ck.Delivered()
		c.Undeliverable = net.Undeliverable()
		c.Violations = ck.Total()
		c.Kinds = ck.Counts()
		c.Retransmits, c.Acked, c.AckLost, c.Exhausted = net.RetransmitStats()
		c.Dupes = net.DupSuppressed()
		c.Epochs, c.LastEpoch = net.Epochs(), net.LastEpochCycle()
		c.Partitioned = net.PartitionedPairs()
		c.EndCycle = net.Cycle()
		c.Counters = *net.Counters()
		if r := recover(); r != nil {
			c.OK = false
			c.Why = "panic: " + firstLine(fmt.Sprint(r))
		}
	}()
	sp := tr.begin("network", "network.DrainChecked")
	t0 := time.Now()
	drainErr := net.DrainChecked(p.drain, p.watchdog)
	t1 := time.Now()
	tr.end(sp)
	sp = tr.begin("network", "network.CheckInvariants")
	net.CheckInvariants()
	if tr != nil {
		lay.drain += t1.Sub(t0)
		lay.invariants += time.Since(t1)
	}
	tr.end(sp)
	switch {
	case drainErr != nil:
		c.Why = "wedged: " + firstLine(drainErr.Error())
	case ck.Total() > 0:
		c.Why = fmt.Sprintf("%d violations", ck.Total())
	case ck.Delivered()+net.Undeliverable() != ck.Injected():
		c.Why = fmt.Sprintf("%d packets unaccounted", ck.Injected()-ck.Delivered()-net.Undeliverable())
	default:
		c.OK = true
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// degradeTraffic is noxfault's per-cell bursty source set: per-core
// self-similar ON/OFF processes and destination streams forked from the
// cell seed.
type degradeTraffic struct {
	procs []traffic.Process
	dests []*sim.RNG
}

func newDegradeTraffic(cores int, load float64, seed uint64) degradeTraffic {
	base := sim.NewRNG(seed ^ 0x42555253) // "BURS"
	tr := degradeTraffic{procs: make([]traffic.Process, cores), dests: make([]*sim.RNG, cores)}
	for i := range tr.procs {
		tr.procs[i] = traffic.NewSelfSimilar(load, base.Fork(uint64(i)))
		tr.dests[i] = base.Fork(uint64(1000 + i))
	}
	return tr
}

func (tr degradeTraffic) injectCycle(net *network.Network, multi float64) {
	cores := len(tr.procs)
	for id := 0; id < cores; id++ {
		if !tr.procs[id].Tick() {
			continue
		}
		rng := tr.dests[id]
		dst := rng.Intn(cores - 1)
		if dst >= id {
			dst++
		}
		length := 1
		if multi > 0 && rng.Float64() < multi {
			length = 4
		}
		net.Inject(noc.NodeID(id), noc.NodeID(dst), length, 0)
	}
}

// degradeReport renders cells in noxfault's degradation-report format, so
// the output of one pass can be compared byte for byte with the tool's.
func degradeReport(p degradeParams, seq [][2]noc.NodeID, cells []dcell) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "noxfault degradation sweep\n")
	fmt.Fprintf(&sb, "topo=%dx%d buffers=%d cycles=%d load=%.4f multi=%.2f drain=%d watchdog=%d seed=0x%X\n",
		p.topo.Width, p.topo.Height, p.bufferDepth, p.cycles, p.load, p.multi, p.drain, p.watchdog, p.seed)
	fmt.Fprintf(&sb, "kill=cycle-%d retransmit: timeout=%d retries=%d\n", p.killAt, p.rt.Timeout, p.rt.Retries)
	var seqStr []string
	for _, l := range seq[:p.maxDead] {
		seqStr = append(seqStr, fmt.Sprintf("L%d-%d", int(l[0]), int(l[1])))
	}
	fmt.Fprintf(&sb, "kill sequence: %s\n", strings.Join(seqStr, " "))
	bad := 0
	var arch router.Arch = -1
	for _, c := range cells {
		if c.Arch != arch {
			arch = c.Arch
			fmt.Fprintf(&sb, "arch %s:\n", arch)
		}
		fmt.Fprintf(&sb, "  links=%d: injected=%d delivered=%d undeliverable=%d thpt=%.5f pkt/cycle lat=%.1f",
			c.Failed, c.Injected, c.Delivered, c.Undeliverable, c.thpt(), c.meanLat())
		if c.Epochs > 0 {
			fmt.Fprintf(&sb, " epochs=%d@%d", c.Epochs, c.LastEpoch)
		}
		if c.Retransmits > 0 || c.Exhausted > 0 {
			fmt.Fprintf(&sb, " rtx=%d/%d", c.Retransmits, c.Exhausted)
		}
		if c.Dupes > 0 {
			fmt.Fprintf(&sb, " dups=%d", c.Dupes)
		}
		if c.Partitioned > 0 {
			fmt.Fprintf(&sb, " partitioned=%d", c.Partitioned)
		}
		if c.OK {
			fmt.Fprintf(&sb, " ok\n")
		} else {
			bad++
			fmt.Fprintf(&sb, " UNDETECTED (%s)\n", c.Why)
		}
	}
	fmt.Fprintf(&sb, "overall: cells=%d ok=%d undetected=%d\n", len(cells), len(cells)-bad, bad)
	if bad > 0 {
		fmt.Fprintf(&sb, "WARNING: unaccounted loss or violations under permanent faults\n")
	}
	return sb.String()
}

// cellMBps converts a cell's delivered flits to MB/s/node at the
// architecture's clock.
func cellMBps(c dcell, nodes int) float64 {
	if c.EndCycle == 0 {
		return 0
	}
	perNodeCycle := float64(c.DeliveredFlit) / float64(nodes) / float64(c.EndCycle)
	return harness.MBpsPerNode(perNodeCycle, physical.ClockPeriodNs(c.Arch))
}
