package network

import (
	"fmt"
	"runtime"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/check"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/snapshot/codec"
)

// Config parameterizes one physical network.
type Config struct {
	// Topo is the router-grid shape; the paper evaluates 8x8 (Table 1).
	Topo noc.Topology
	// Concentration is the number of cores per router (default 1, the
	// paper's mesh; 4 builds the radix-8 concentrated mesh of the
	// future-work study).
	Concentration int
	// Arch selects the router microarchitecture for every node.
	Arch router.Arch
	// BufferDepth is the per-input FIFO depth in flits (default 4, Table 1).
	BufferDepth int
	// SinkDepth is the ejection interface buffer depth (default 16; the
	// sink drains a flit per cycle so it never fills in practice).
	SinkDepth int
	// NewArbiter overrides the per-output arbiter (default round-robin).
	NewArbiter func(n int) arbiter.Arbiter
	// AlwaysActive disables the kernel's quiescence fast path so every
	// component is evaluated every cycle — the reference mode that
	// equivalence tests and benchmarks compare the fast path against.
	AlwaysActive bool
	// Probe, when non-nil, records flit-level trace events and per-router
	// metrics for this network. Nil disables all instrumentation at zero
	// cost on the simulation hot path.
	Probe *probe.Probe
	// Shards selects the execution mode: 0 picks automatically (see
	// AutoShards), 1 forces the serial kernel, and N >= 2 partitions the
	// mesh into N spatial shards stepped by a persistent worker pool.
	// Results are bit-identical at every shard count; call Close on the
	// network when done so the workers are released.
	Shards int
	// DisableLanes turns off typed-lane dispatch on the serial path, driving
	// every component through the generic interface walk instead — the
	// reference mode the lane-equivalence tests compare against. Behavior is
	// identical either way; only dispatch mechanics differ. No effect when
	// sharded (lanes are serial-only).
	DisableLanes bool
	// Check, when non-nil, arms the runtime invariant layer on this network:
	// the delivery oracle validates every packet at its interface, protocol
	// violations (which injected faults make legitimately reachable) are
	// recorded instead of panicking, and CheckInvariants runs the post-drain
	// conservation checks. Nil costs nothing on the hot path.
	Check *check.Checker
	// Fault, when non-nil, injects channel-level faults
	// (internal/fault.Injector); it is bound to this network's link sites at
	// construction. Requires Check — running faults without the lenient
	// checker paths would panic sharded worker goroutines. When the injector
	// also implements HardFaulter and declares permanent faults, the network
	// arms fault-aware rerouting with reconfiguration epochs (see
	// hardfault.go).
	Fault FaultInjector
	// Retransmit, when non-nil, arms end-to-end retransmission at the
	// network interfaces: unacknowledged packets are re-sent from their
	// sources with bounded retries and cycle-domain exponential backoff,
	// and packets that exhaust the budget are retired as undeliverable.
	// Nil costs a single pointer test on the hot path.
	Retransmit *RetransmitConfig
	// Oracle arms the kernel's event-horizon contract oracle: every component
	// is evaluated eagerly every cycle, and any component the quiescence or
	// horizon rules would have parked is state-hashed around its evaluation —
	// a hash change means the component lied about being parkable (its Quiet
	// or Horizon broke the purity contract) and the step panics with the
	// offender. Debug/contract-test mode: serial execution only, and far
	// slower than either the eager or the parked walk (a full state
	// serialization per parked component per cycle).
	Oracle bool
	// Observer, when non-nil, is installed as an additional kernel observer
	// (after the probe's sampler): it fires at the end of every stepped or
	// fast-forwarded cycle with the active-component count. The telemetry
	// sampler (internal/telemetry) hangs its live cycles/s and activity
	// gauges here. Same contract as sim.Kernel.AddObserver.
	Observer func(cycle int64, active int)
}

// FaultInjector is the contract between a network and a fault-injection
// backend. internal/fault.Injector implements it; the indirection keeps the
// dependency arrow pointing from fault to network's peers rather than into
// this package's construction path.
type FaultInjector interface {
	noc.Tamperer
	// BindSites is called once at construction with the network's channel
	// count; site indices passed to the Tamperer methods are [0, n).
	BindSites(n int)
	// CreditDelta returns the net credit change faults applied at a site,
	// offsetting the post-drain credit conservation check.
	CreditDelta(site int) int
	// Impacted reports whether a fault fired that may corrupt or prevent
	// delivery of the packet; the delivery oracle treats missing impacted
	// packets as accounted-for rather than lost.
	Impacted(id uint64) bool
	// Leaky reports whether a fired fault may have leaked pooled flit
	// objects, disabling the arena-exactness check.
	Leaky() bool
}

func (c *Config) fill() {
	if c.Topo.Width <= 0 || c.Topo.Height <= 0 {
		c.Topo = noc.Topology{Width: 8, Height: 8}
	}
	if c.Concentration <= 0 {
		c.Concentration = 1
	}
	if c.BufferDepth <= 0 {
		c.BufferDepth = 4
	}
	if c.SinkDepth <= 0 {
		c.SinkDepth = 16
	}
}

// AutoShards picks the worker-shard count for a mesh with the given router
// count: the crossover heuristic behind Config.Shards == 0. Small meshes
// (fewer than 256 routers) and single-CPU hosts stay serial — per-cycle
// work there is too small to amortize three barriers — larger meshes get
// roughly one shard per 64 routers, capped at GOMAXPROCS.
func AutoShards(routers int) int {
	procs := runtime.GOMAXPROCS(0)
	if routers < 256 || procs == 1 {
		return 1
	}
	s := routers / 64
	if s < 2 {
		s = 2
	}
	if s > procs {
		s = procs
	}
	return s
}

// delivery is one completed packet staged by a shard worker for the step
// epilogue, which replays deliveries in interface order — the order the
// serial kernel's NI walk would have completed them in.
type delivery struct {
	p  *noc.Packet
	ni int32
}

// Network is a complete mesh NoC: routers, inter-router links, and network
// interfaces, advanced in lockstep cycles.
type Network struct {
	cfg      Config
	sys      noc.System
	kernel   *sim.Kernel
	routes   *routing.Table
	routers  []router.Router
	nis      []*NI
	niHandle []sim.Handle
	counters *power.Counters
	probe    *probe.Probe

	// Sharded-mode state. shardOfNode maps router nodes to contiguous
	// spatial shards; every component is assigned to the shard of the node
	// that RECEIVES from it (routers and NIs to their own node, each link
	// to its sink's node), which keeps every commit-phase write except Wake
	// inside one shard. shardCounters splits the power accounting per shard
	// (folded on Counters calls); mailboxes stage completed deliveries per
	// shard until the epilogue merges them. All nil/zero on the serial path.
	shards        int
	shardOfNode   []int32
	shardCounters []power.Counters
	aggCounters   power.Counters
	mailboxes     [][]delivery
	mailHeads     []int

	// arenas pool every flit the simulation materializes, one per shard so
	// all allocation and recycling is worker-local (serial runs use a single
	// arena). Flits migrate between arenas — only the summed Outstanding is
	// meaningful; see ArenaOutstanding.
	arenas []noc.Arena

	ejectLinks []*noc.Link
	// links is every channel in site order (the fault-injection site
	// numbering and the credit conservation walk).
	links []*noc.Link

	check *check.Checker
	fault FaultInjector

	// Permanent-fault state (see hardfault.go). hard is non-nil only when
	// the injector declares hard faults; sites mirrors links in site order.
	// faultKey/curFaults identify the fault set the active route table was
	// built for; killCursor and lastEscGen are the epoch observer's dirty
	// cursors. All untouched on fault-free runs.
	hard           HardFaulter
	sites          []noc.LinkSite
	faultKey       string
	curFaults      routing.FaultSet
	killCursor     int
	lastEscGen     int64
	epochs         int64
	lastEpochCycle int64
	undeliverable  int64

	// rel is the end-to-end retransmission state, nil when disarmed (see
	// reliability.go).
	rel *relState

	nextPacketID uint64
	injected     int64
	delivered    int64

	// OnDeliver, when set, observes every completed packet at its delivery
	// cycle (after DeliverCycle is stamped). Sharded runs invoke it from
	// the step epilogue on the stepping goroutine, in the same
	// interface-order sequence as serial runs.
	OnDeliver func(p *noc.Packet, cycle int64)
	// OnReconfigure, when set, observes every reconfiguration epoch with
	// the cycle it ran at and the permanent-fault set it rerouted around.
	// Runs on the stepping goroutine; the flight recorder's reconfiguration
	// trigger hangs here.
	OnReconfigure func(cycle int64, fs routing.FaultSet)
}

// New builds and wires a network, panicking on an invalid configuration.
// Build is the error-returning form for configurations from user input.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg.fill()
	sys := noc.System{Grid: cfg.Topo, Concentration: cfg.Concentration}
	sys.Validate()
	routers := sys.Routers()
	cores := sys.Cores()

	shards := cfg.Shards
	if shards == 0 {
		shards = AutoShards(routers)
	}
	if shards > routers {
		shards = routers
	}
	sharded := shards > 1

	n := &Network{
		cfg:            cfg,
		sys:            sys,
		kernel:         sim.NewKernel(),
		probe:          cfg.Probe,
		shards:         shards,
		lastEpochCycle: -1,
	}

	// Fault binding happens before any router is built: a campaign with
	// permanent faults may declare sites dead from cycle 0, and the routers
	// must be constructed against the route table for the surviving
	// topology, not rerouted after the fact.
	n.sites = buildSites(sys)
	n.check = cfg.Check
	n.fault = cfg.Fault
	if n.fault != nil {
		n.fault.BindSites(len(n.sites))
		if hf, ok := n.fault.(HardFaulter); ok && hf.HardArmed() {
			hf.BindTopology(sys, n.sites)
			n.hard = hf
			n.lastEscGen = hf.EscalationGen()
		}
	}
	n.routes = routing.SharedSystemTable(sys)
	if n.hard != nil {
		fs := n.hard.FaultSet(0)
		n.faultKey = fs.Key()
		n.curFaults = fs
		if !fs.Empty() {
			n.routes = routing.SharedFaultTable(sys, fs)
		}
	}
	if cfg.Retransmit != nil {
		n.rel = newRelState(*cfg.Retransmit)
	}

	if n.probe != nil {
		n.probe.Attach(cfg.Topo.Width, cfg.Topo.Height, sys.Ports(), cores, cfg.BufferDepth)
	}

	// countersFor/probeFor resolve the instrumentation sinks for a component
	// co-located with the given router node. Serial: one shared counter
	// block and the probe itself. Sharded: the node's shard gets its own
	// counter block and probe child, so workers never write shared state.
	n.arenas = make([]noc.Arena, shards)
	var countersFor func(node int) *power.Counters
	var probeFor func(node int) *probe.Probe
	var probeChildren []*probe.Probe
	if sharded {
		n.shardOfNode = make([]int32, routers)
		for id := range n.shardOfNode {
			// Contiguous row-major node ranges: spatially coherent tiles with
			// balanced sizes at any shard count.
			n.shardOfNode[id] = int32(id * shards / routers)
		}
		n.shardCounters = make([]power.Counters, shards)
		n.mailboxes = make([][]delivery, shards)
		n.mailHeads = make([]int, shards)
		countersFor = func(node int) *power.Counters { return &n.shardCounters[n.shardOfNode[node]] }
		if n.probe != nil {
			probeChildren = n.probe.ShardChildren(shards)
			probeFor = func(node int) *probe.Probe { return probeChildren[n.shardOfNode[node]] }
		} else {
			probeFor = func(int) *probe.Probe { return nil }
		}
	} else {
		n.counters = &power.Counters{}
		countersFor = func(int) *power.Counters { return n.counters }
		probeFor = func(int) *probe.Probe { return n.probe }
	}
	arenaFor := func(node int) *noc.Arena {
		if sharded {
			return &n.arenas[n.shardOfNode[node]]
		}
		return &n.arenas[0]
	}

	n.routers = make([]router.Router, routers)
	n.nis = make([]*NI, cores)
	n.ejectLinks = make([]*noc.Link, cores)

	// One batch allocator for every router: their ports, FIFOs, scratch
	// vectors, and arbiters are carved from shared chunks.
	slabs := router.NewSlabs()
	for id := 0; id < routers; id++ {
		n.routers[id] = router.New(router.Config{
			Arch:        cfg.Arch,
			Node:        noc.NodeID(id),
			Routes:      n.routes,
			BufferDepth: cfg.BufferDepth,
			Counters:    countersFor(id),
			Ports:       sys.Ports(),
			NewArbiter:  cfg.NewArbiter,
			Probe:       probeFor(id),
			Arena:       arenaFor(id),
			Slabs:       slabs,
			Check:       cfg.Check,
		})
	}
	// Network interfaces come from one slab, their sink rings from another,
	// and all share one all-Local route row (every flit reaching a sink
	// ejects locally).
	niSlab := make([]NI, cores)
	localRow := make([]noc.Port, cores)
	for c := range localRow {
		localRow[c] = noc.Local
	}
	sinkSl := buffer.SlotsFor(cfg.SinkDepth)
	sinkSlots := make([]*noc.Flit, cores*sinkSl)
	for c := 0; c < cores; c++ {
		home := int(sys.RouterOf(noc.NodeID(c)))
		ni := &niSlab[c]
		ni.init(noc.NodeID(c), n, cfg.SinkDepth, sinkSlots[c*sinkSl:(c+1)*sinkSl:(c+1)*sinkSl], localRow, arenaFor(home))
		ni.counters = countersFor(home)
		ni.probe = probeFor(home)
		if cfg.Check != nil {
			// Armed: ejection-side decode corruption becomes a reported
			// violation instead of a panic.
			ni.sink.SetLenient(true)
		}
		if sharded {
			ni.shard = n.shardOfNode[home]
		}
		n.nis[c] = ni
	}

	// Components compute/commit in registration order: routers and NIs
	// first, links last, so credits returned during a commit become visible
	// to senders exactly one cycle later. The order also serves the
	// quiescence machinery: a compute-phase Send or a commit-phase
	// ReturnCredit always wakes a link whose commit slot is still ahead in
	// the same cycle. The sharded executor preserves exactly this ordering
	// through the kernel's early/late commit classes (links register via
	// AddLate), and shardOf co-locates every component with the node it
	// delivers into, so all commit-phase writes except Wake stay
	// shard-local.
	// Every channel of the mesh comes from one value slab: 2 directed links
	// per grid adjacency plus an injection and an ejection channel per core.
	linkCount := 2*(cfg.Topo.Width*(cfg.Topo.Height-1)+cfg.Topo.Height*(cfg.Topo.Width-1)) + 2*cores
	linkSlab := make([]noc.Link, linkCount)
	linksUsed := 0
	newLink := func(sink noc.Receiver, credits int) *noc.Link {
		l := &linkSlab[linksUsed]
		linksUsed++
		l.Init(sink, credits)
		return l
	}
	n.kernel.Reserve(routers + cores + linkCount)

	var shardOf []int
	routerHandle := make([]sim.Handle, routers)
	for id := 0; id < routers; id++ {
		routerHandle[id] = n.kernel.Add(n.routers[id])
		if sharded {
			shardOf = append(shardOf, int(n.shardOfNode[id]))
		}
	}
	n.niHandle = make([]sim.Handle, cores)
	for c := 0; c < cores; c++ {
		n.niHandle[c] = n.kernel.Add(n.nis[c])
		if sharded {
			shardOf = append(shardOf, int(n.nis[c].shard))
		}
	}

	// Each link is registered together with the handle of the component its
	// sink belongs to, so a delivery re-activates the consumer, and the
	// handle of its sender, so a credit count lifting off zero re-activates
	// a producer parked on backpressure; the link also inherits the sink
	// owner's shard (receiver-side assignment).
	links := make([]*noc.Link, 0, linkCount)
	sinkOwner := make([]sim.Handle, 0, linkCount)
	srcOwner := make([]sim.Handle, 0, linkCount)
	// linkArena tracks each channel's sink-side arena (needed by fault
	// injection: a flit dropped at commit is released on the sink's shard).
	linkArena := make([]*noc.Arena, 0, linkCount)
	for id := 0; id < routers; id++ {
		r := n.routers[id]
		// Inter-router channels.
		for _, p := range []noc.Port{noc.North, noc.East, noc.South, noc.West} {
			nb, ok := cfg.Topo.Neighbor(noc.NodeID(id), p)
			if !ok {
				continue
			}
			dst := n.routers[nb]
			l := newLink(dst.InputReceiver(p.Opposite()), cfg.BufferDepth)
			r.SetOutputLink(p, l)
			dst.SetInputLink(p.Opposite(), l)
			if n.probe != nil {
				l.SetProbe(probeFor(int(nb)), id, int(p))
			}
			links = append(links, l)
			sinkOwner = append(sinkOwner, routerHandle[nb])
			srcOwner = append(srcOwner, routerHandle[id])
			linkArena = append(linkArena, arenaFor(int(nb)))
		}
		// Local ports: one injection and one ejection link per core.
		for k := 0; k < sys.Concentration; k++ {
			coreID := sys.CoreID(noc.NodeID(id), k)
			port := sys.LocalPort(coreID)
			inj := newLink(r.InputReceiver(port), cfg.BufferDepth)
			n.nis[coreID].injectLink = inj
			r.SetInputLink(port, inj)
			if n.probe != nil {
				inj.SetProbe(probeFor(id), int(coreID), -1)
			}
			links = append(links, inj)
			sinkOwner = append(sinkOwner, routerHandle[id])
			srcOwner = append(srcOwner, n.niHandle[coreID])
			linkArena = append(linkArena, arenaFor(id))
			ej := newLink(n.nis[coreID].SinkReceiver(), cfg.SinkDepth)
			r.SetOutputLink(port, ej)
			if n.probe != nil {
				ej.SetProbe(probeFor(id), id, int(port))
			}
			n.ejectLinks[coreID] = ej
			links = append(links, ej)
			sinkOwner = append(sinkOwner, n.niHandle[coreID])
			srcOwner = append(srcOwner, routerHandle[id])
			linkArena = append(linkArena, arenaFor(id))
		}
	}
	n.links = links
	if n.fault != nil {
		for i, l := range links {
			l.SetTamper(n.fault, i, linkArena[i])
		}
	}
	if linksUsed != linkCount {
		panic(fmt.Sprintf("network: wired %d links, slab sized for %d", linksUsed, linkCount))
	}
	if len(n.sites) != len(links) {
		panic(fmt.Sprintf("network: site table built %d sites for %d links", len(n.sites), len(links)))
	}
	for i, l := range links {
		lh := n.kernel.AddLate(l)
		l.SetWake(n.kernel, int(lh), int(sinkOwner[i]), int(srcOwner[i]))
		if sharded {
			shardOf = append(shardOf, shardOf[sinkOwner[i]])
		}
	}
	if !sharded && !cfg.DisableLanes {
		// Typed dense lanes devirtualize the serial step's dispatch. The
		// three component classes occupy contiguous handle ranges by
		// construction: routers at [0, R), interfaces at [R, R+C), channels
		// after that.
		n.kernel.BindLane(0, router.NewLane(n.routers))
		n.kernel.BindLane(sim.Handle(routers), niLane(n.nis))
		n.kernel.BindLane(sim.Handle(routers+cores), noc.LinkLane(links))
	}
	n.kernel.SetAlwaysActive(cfg.AlwaysActive)
	if cfg.Oracle {
		if sharded {
			panic("network: Config.Oracle requires serial execution (Shards <= 1)")
		}
		n.kernel.SetOracle(n.oracleHash)
	}
	if sharded {
		n.kernel.SetSharding(shards, shardOf)
		n.kernel.SetEpilogue(n.drainShardMail)
		if n.probe != nil {
			n.kernel.SetEvalHook(func(shard, phase, comp int) {
				probeChildren[shard].SetShardContext(phase, comp)
			})
		}
	}
	// Recovery observers run first: the reconfiguration epoch rebuilds
	// routes before the probe samples the cycle, and the retransmission
	// observer after it sees the post-epoch table.
	if n.hard != nil {
		n.kernel.AddObserver(n.epochTick)
	}
	if n.rel != nil {
		n.kernel.AddObserver(n.relTick)
	}
	// The probe's observer is its time-series sampler; without one it
	// would be a per-cycle no-op that also keeps FastForward and SkipIdle
	// from jumping idle stretches in O(1).
	if n.probe != nil && n.probe.Sampling() {
		n.kernel.AddObserver(n.probe.Tick)
	}
	if cfg.Observer != nil {
		n.kernel.AddObserver(cfg.Observer)
	}
	return n
}

// oracleHash serializes one component's committed state and folds it to a
// 64-bit FNV-1a digest — the state fingerprint the kernel's debug oracle
// compares around the evaluation of notionally parked components. Handles
// map to components by construction order: routers, then interfaces, then
// channels (the same ranges the typed lanes bind).
func (n *Network) oracleHash(h sim.Handle) uint64 {
	e := codec.NewEncoder()
	i, r, c := int(h), len(n.routers), len(n.nis)
	switch {
	case i < r:
		if err := n.routers[i].SaveState(e); err != nil {
			panic(fmt.Sprintf("network: oracle hash of router %d: %v", i, err))
		}
	case i < r+c:
		n.nis[i-r].SaveState(e)
	default:
		// Links have no SaveState (their only between-step state is the
		// credit count); staged returns are included for completeness even
		// though a parked link always holds zero.
		l := n.links[i-r-c]
		e.Int(l.Credits())
		e.Int(l.PendingReturns())
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	hash := uint64(offset64)
	for _, b := range e.Bytes() {
		hash ^= uint64(b)
		hash *= prime64
	}
	return hash
}

// drainShardMail is the sharded step epilogue: it replays the deliveries
// the shards staged this cycle in interface order (the order the serial NI
// walk completes them in) and merges per-shard probe event buffers back
// into the parent ring. Runs on the stepping goroutine after the cycle's
// last barrier.
func (n *Network) drainShardMail(cycle int64) {
	total := 0
	for s := range n.mailboxes {
		n.mailHeads[s] = 0
		total += len(n.mailboxes[s])
	}
	if total > 0 {
		// Each shard's mailbox is already in ascending interface order (its
		// worker walks NIs in registration order, one delivery per NI per
		// cycle), so a k-way min pick reproduces the global order.
		for ; total > 0; total-- {
			best := -1
			var bestNI int32
			for s := range n.mailboxes {
				h := n.mailHeads[s]
				if h >= len(n.mailboxes[s]) {
					continue
				}
				if ni := n.mailboxes[s][h].ni; best < 0 || ni < bestNI {
					best, bestNI = s, ni
				}
			}
			d := n.mailboxes[best][n.mailHeads[best]]
			n.mailHeads[best]++
			n.deliver(d.p, cycle)
		}
		for s := range n.mailboxes {
			n.mailboxes[s] = n.mailboxes[s][:0]
		}
	}
	if n.probe != nil {
		n.probe.MergeShards()
	}
}

// Probe returns the attached observability probe, nil when disabled.
func (n *Network) Probe() *probe.Probe { return n.probe }

// Topology returns the router-grid shape.
func (n *Network) Topology() noc.Topology { return n.cfg.Topo }

// System returns the (possibly concentrated) system description.
func (n *Network) System() noc.System { return n.sys }

// Cores returns the number of network endpoints.
func (n *Network) Cores() int { return n.sys.Cores() }

// Arch returns the router architecture.
func (n *Network) Arch() router.Arch { return n.cfg.Arch }

// Counters returns the network's event counters. On the serial path this
// is the live shared block; on the sharded path each call folds the
// per-shard blocks into a snapshot (callers already dereference
// immediately to window counters, so both behave identically). Only call
// between steps.
func (n *Network) Counters() *power.Counters {
	if n.shardCounters == nil {
		return n.counters
	}
	n.aggCounters = power.Counters{}
	for i := range n.shardCounters {
		n.aggCounters.Add(n.shardCounters[i])
	}
	return &n.aggCounters
}

// Shards returns the resolved worker-shard count (1 = serial execution).
func (n *Network) Shards() int { return n.shards }

// Close releases the sharded worker pool; stepping after Close panics.
// A no-op on the serial path (and safe to call repeatedly).
func (n *Network) Close() { n.kernel.Close() }

// FullyIdle reports that every component is quiescent, so cycles advance
// without any evaluation until the next injection.
func (n *Network) FullyIdle() bool { return n.kernel.FullyIdle() }

// FastForwardIdle advances the clock up to limit cycles in bulk while the
// network is fully quiescent, returning the cycles advanced (0 if busy).
// Probe sampling still observes every skipped cycle, so probed output is
// identical to stepping. With hard faults or retransmission armed, cycles
// on which a scheduled kill boundary or retransmission event lands are
// stepped rather than skipped (their observers may wake components), and
// the advance stops early if such a step re-activates the network.
func (n *Network) FastForwardIdle(limit int64) int64 {
	if n.hard == nil && n.rel == nil {
		return n.kernel.FastForward(limit)
	}
	return n.fastForward(limit)
}

// Routes returns the network's route table.
func (n *Network) Routes() *routing.Table { return n.routes }

// Cycle returns the current cycle number.
func (n *Network) Cycle() int64 { return n.kernel.Cycle() }

// Kernel exposes the network's simulation kernel for read-only inspection
// (active-component counts and the like). Stepping or mutating it directly
// bypasses the network's own sequencing.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Step advances the network one cycle.
func (n *Network) Step() { n.kernel.Step() }

// Inject creates a packet from src to dst with the given flit count and
// queues it at src's interface in the current cycle. It returns the packet
// for the caller's bookkeeping. Invalid packets panic; InjectChecked is the
// error-returning form for endpoints from user input.
func (n *Network) Inject(src, dst noc.NodeID, length int, class int) *noc.Packet {
	p, err := n.InjectChecked(src, dst, length, class)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// InjectPacket queues a pre-built packet (trace replay) at its source.
// The packet's CreateCycle must be the current cycle or earlier. A packet
// whose destination is currently partitioned away by permanent faults is
// refused at the source — counted injected and undeliverable, so
// offered-traffic accounting stays comparable across fault sets.
func (n *Network) InjectPacket(p *noc.Packet) {
	if int(p.Src) >= len(n.nis) || int(p.Dst) >= len(n.nis) {
		panic(fmt.Sprintf("network: packet endpoints %d->%d outside topology", p.Src, p.Dst))
	}
	n.injected++
	n.check.OnInject(n.Cycle(), p.ID)
	if n.hard != nil && !n.routes.Reachable(p.Src, p.Dst) {
		n.markUndeliverable(p, n.Cycle())
		return
	}
	if n.rel != nil {
		n.relArm(p, n.Cycle())
	}
	n.nis[p.Src].enqueue(p)
	// The interface may have gone quiescent; new work re-activates it.
	n.kernel.Wake(n.niHandle[p.Src])
}

func (n *Network) deliver(p *noc.Packet, cycle int64) {
	n.delivered++
	n.check.OnDeliver(cycle, p.ID)
	if n.rel != nil {
		n.relDelivered(p, cycle)
	}
	if n.OnDeliver != nil {
		n.OnDeliver(p, cycle)
	}
}

// Outstanding returns the number of injected packets neither delivered nor
// retired as undeliverable — the count a drain must bring to zero.
func (n *Network) Outstanding() int64 { return n.injected - n.delivered - n.undeliverable }

// ArenaOutstanding returns the number of pooled flits currently live inside
// the simulation, summed over every shard arena (individual arenas can go
// negative as flits migrate between shards). After a successful Drain it must
// be zero — the leak invariant the network tests assert: every flit the
// datapath materializes is recycled exactly once. Only call between steps.
func (n *Network) ArenaOutstanding() int {
	total := 0
	for i := range n.arenas {
		total += n.arenas[i].Outstanding()
	}
	return total
}

// Injected returns the total packets accepted by Inject so far.
func (n *Network) Injected() int64 { return n.injected }

// Delivered returns the total packets delivered so far.
func (n *Network) Delivered() int64 { return n.delivered }

// QueueLen returns the source-queue depth at a node.
func (n *Network) QueueLen(node noc.NodeID) int { return n.nis[node].QueueLen() }

// Drain runs the network without new traffic until every injected packet is
// delivered or limit additional cycles elapse; it reports whether the
// network fully drained. A fully quiescent network with packets still
// outstanding is wedged (no evaluation can ever deliver them), so Drain
// jumps the clock to the deadline instead of stepping empty cycles.
func (n *Network) Drain(limit int64) bool {
	deadline := n.Cycle() + limit
	for n.Outstanding() > 0 && n.Cycle() < deadline {
		if n.kernel.FullyIdle() {
			if n.FastForwardIdle(deadline-n.Cycle()) == 0 {
				break
			}
			continue
		}
		n.Step()
	}
	return n.Outstanding() == 0
}
