package network

import (
	"sort"

	"repro/internal/noc"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/snapshot/codec"
)

// Permanent-fault support: when the fault injector declares hard faults
// (dead links, dead routers, or transient-to-permanent escalation), the
// network arms a reconfiguration-epoch observer. At the end of the cycle
// before a kill takes effect — or the cycle an escalation promotes a site —
// the observer rebuilds the route table over the surviving topology
// (deadlock-free up*/down*, see internal/routing), flushes every in-flight
// flit (accounted to the delivery oracle, recovered by end-to-end
// retransmission when armed), restores all channel credits, and retires
// packets whose destinations the damage partitioned away as undeliverable.
// The whole epoch runs atomically between two cycles on the stepping
// goroutine, so serial and sharded execution see byte-identical
// degradation.

// HardFaulter extends FaultInjector with the permanent-fault surface the
// reconfiguration machinery needs. internal/fault.Injector implements it;
// the network detects the capability by type assertion and arms the epoch
// observer only when HardArmed reports the campaign actually declares
// permanent faults.
type HardFaulter interface {
	FaultInjector
	// HardArmed reports whether the campaign declares any permanent-fault
	// machinery at all; false keeps the network on the transient-only path.
	HardArmed() bool
	// BindTopology is called once at construction, after BindSites, with the
	// system and the per-site topology attachments in site order.
	BindTopology(sys noc.System, sites []noc.LinkSite)
	// FaultSet returns the canonical dead-router/dead-link set in force at
	// cycle — the key route tables are rebuilt from.
	FaultSet(cycle int64) routing.FaultSet
	// ScheduledKillCycles returns the sorted cycles (> 0) at which
	// spec-scheduled kills take effect.
	ScheduledKillCycles() []int64
	// EscalationGen returns a monotonic count of escalation promotions, the
	// epoch observer's dirty signal for runtime-promoted permanent faults.
	EscalationGen() int64
	// EscalatedLinks returns how many links escalation killed so far.
	EscalatedLinks() int64
	// MarkImpacted records a packet whose delivery a permanent fault may
	// have prevented, so the delivery oracle accounts rather than loses it.
	MarkImpacted(id uint64)
	// ResetSiteAccounting zeroes per-site credit deltas after the epoch
	// restores every channel to full credit.
	ResetSiteAccounting()
	// SaveHardState and RestoreHardState checkpoint the dynamic permanent-
	// fault state (escalated kills, escalation rings) with the network.
	SaveHardState(e *codec.Encoder)
	RestoreHardState(d *codec.Decoder) error
}

// buildSites constructs the per-channel topology attachments in exactly the
// order New wires links: per router (ascending id) its North/East/South/West
// inter-router channels to existing neighbors, then per attached core an
// inject channel followed by an eject channel. New cross-checks the length
// against the wired link count.
func buildSites(sys noc.System) []noc.LinkSite {
	topo := sys.Grid
	routers := sys.Routers()
	sites := make([]noc.LinkSite, 0, 2*(topo.Width*(topo.Height-1)+topo.Height*(topo.Width-1))+2*sys.Cores())
	for id := 0; id < routers; id++ {
		for _, p := range []noc.Port{noc.North, noc.East, noc.South, noc.West} {
			if nb, ok := topo.Neighbor(noc.NodeID(id), p); ok {
				sites = append(sites, noc.LinkSite{Src: noc.NodeID(id), Dst: nb, Core: -1})
			}
		}
		for k := 0; k < sys.Concentration; k++ {
			coreID := sys.CoreID(noc.NodeID(id), k)
			sites = append(sites, noc.LinkSite{Src: -1, Dst: noc.NodeID(id), Core: coreID})
			sites = append(sites, noc.LinkSite{Src: noc.NodeID(id), Dst: -1, Core: coreID})
		}
	}
	return sites
}

// epochTick is the reconfiguration observer, installed (before all other
// observers) only when hard faults are armed. It fires at the end of every
// cycle; the cheap path is two comparisons. When the permanent-fault set
// effective next cycle differs from the one the current route table was
// built for, it runs the reconfiguration epoch. Wakes are legal only inside
// a real Step; Network.fastForward guarantees every cycle on which this
// observer could find work is stepped, never skipped.
func (n *Network) epochTick(cycle int64, active int) {
	dirty := false
	sched := n.hard.ScheduledKillCycles()
	for n.killCursor < len(sched) && sched[n.killCursor] <= cycle+1 {
		n.killCursor++
		dirty = true
	}
	if g := n.hard.EscalationGen(); g != n.lastEscGen {
		n.lastEscGen = g
		dirty = true
	}
	if !dirty {
		return
	}
	fs := n.hard.FaultSet(cycle + 1)
	if fs.Key() == n.faultKey {
		// A kill landed on an already-dead site (scheduled twice, or
		// escalation racing a scheduled kill): nothing to rebuild.
		return
	}
	if !n.kernel.Stepping() {
		// fastForward steps every cycle a scheduled kill can land on, and
		// escalations need traffic, which a fully idle network has none of.
		panic("network: reconfiguration epoch during fast-forward (kill boundary was skipped, not stepped)")
	}
	n.reconfigure(fs, cycle)
}

// reconfigure is the epoch itself, running between cycle and cycle+1 with
// every component committed and all shard workers quiescent:
//
//  1. Rebuild the route table for the surviving topology and repoint every
//     router at it.
//  2. Flush all in-flight flits — router buffers, sink ports, reassembly in
//     progress, packets mid-transmission — back to rest state. Every flushed
//     packet is marked impacted; without retransmission it is retired as
//     undeliverable (its flits are gone — it can never complete), with
//     retransmission its source resends it after the timeout.
//  3. Restore every channel to full credit (flushed flits took their credits
//     with them) and zero the fault layer's credit accounting to match.
//  4. Retire packets whose destinations are now unreachable — queued,
//     mid-flight, or awaiting retransmission — as undeliverable.
//  5. Wake every interface so parked senders re-evaluate against the
//     refilled credits and the new table.
func (n *Network) reconfigure(fs routing.FaultSet, cycle int64) {
	tbl := routing.SharedFaultTable(n.sys, fs)

	// Flush accounting: collect every distinct packet whose flits the flush
	// destroys. Constituents of encoded flits are walked explicitly — the
	// flushed object may be the superposition, not its parts.
	flushed := make(map[uint64]*noc.Packet)
	note := func(p *noc.Packet) {
		if p != nil {
			flushed[p.ID] = p
		}
	}
	dropped := 0
	acct := func(f *noc.Flit) {
		dropped++
		if f.Encoded {
			for i := range f.Parts {
				note(f.Parts[i].Packet)
			}
			return
		}
		note(f.Packet)
	}

	for _, r := range n.routers {
		r.Flush(acct)
		r.Reroute(tbl)
	}
	for _, ni := range n.nis {
		ni.reconfigure(tbl, acct, note)
	}
	for _, l := range n.links {
		if err := l.RestoreCredits(l.Capacity()); err != nil {
			panic("network: reconfiguration credit restore: " + err.Error())
		}
	}
	n.hard.ResetSiteAccounting()
	if dropped > 0 && n.cfg.Arch == router.NoX {
		// NoX flushes can strand encoded constituents (the same objects may
		// be live upstream as collision losers, so they leak by design —
		// see core.InputPort.Flush); arena exactness no longer holds.
		n.check.MarkLeaky()
	}

	// Retire flushed packets in ascending ID order (map iteration must not
	// leak into observable state). Already-delivered packets only lost
	// stale duplicate flits; mid-flight ones are impacted, and without
	// retransmission provably undeliverable.
	ids := make([]uint64, 0, len(flushed))
	for id := range flushed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := flushed[id]
		if p.DeliverCycle >= 0 {
			continue
		}
		n.hard.MarkImpacted(id)
		if n.rel == nil {
			n.markUndeliverable(p, cycle)
		}
	}
	// Packets awaiting retransmission toward now-unreachable destinations
	// can never be recovered; retire them too (ascending ID order).
	if n.rel != nil {
		n.rel.retireUnreachable(n, tbl, cycle)
	}

	for c := range n.nis {
		n.kernel.Wake(n.niHandle[c])
	}

	n.routes = tbl
	n.faultKey = fs.Key()
	n.curFaults = fs
	n.epochs++
	n.lastEpochCycle = cycle
	if n.OnReconfigure != nil {
		n.OnReconfigure(cycle, fs)
	}
}

// reconfigure tears down this interface's in-flight state at a
// reconfiguration epoch: the sink port is flushed through acct, reassembly
// in progress is abandoned (its remaining flits were just flushed
// somewhere), a packet mid-transmission is aborted (its earlier flits are
// gone; retransmission restarts it from the head), and queued packets whose
// destinations the damage partitioned away are retired as undeliverable.
func (ni *NI) reconfigure(tbl *routing.Table, acct func(*noc.Flit), note func(*noc.Packet)) {
	ni.sink.Flush(acct)
	if p := ni.assembling; p != nil {
		note(p)
		ni.assembling = nil
		ni.expectSeq = 0
	}
	if p := ni.cur; p != nil && ni.curSeq > 0 {
		note(p)
		ni.cur = nil
	}
	n := ni.net
	if p := ni.cur; p != nil && !tbl.Reachable(ni.node, p.Dst) {
		n.markUndeliverable(p, n.Cycle())
		ni.cur = nil
	}
	old := ni.queue
	kept := ni.queue[:0]
	for _, p := range old[ni.queueHead:] {
		if !tbl.Reachable(ni.node, p.Dst) {
			n.markUndeliverable(p, n.Cycle())
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(old); i++ {
		old[i] = nil // drop stale references past the compacted tail
	}
	ni.queue = kept
	ni.queueHead = 0
}

// markUndeliverable retires a packet the network has proven can never be
// delivered: the undeliverable count (which Outstanding subtracts, so drains
// terminate), the checker's delivery oracle, and any retransmission entry
// are all settled together. Idempotent, and a no-op on delivered packets.
// Stepping goroutine only.
func (n *Network) markUndeliverable(p *noc.Packet, cycle int64) {
	if p.DeliverCycle != -1 {
		return // delivered, or already retired
	}
	p.DeliverCycle = noc.Undelivered
	n.undeliverable++
	n.check.OnUndeliverable(cycle, p.ID)
	if n.rel != nil {
		delete(n.rel.entries, p.ID)
	}
}

// nextEventBoundary returns the earliest upcoming cycle that must be stepped
// (not skipped) for the recovery machinery to observe it: the cycle before
// the next scheduled kill (its epoch runs in that cycle's observer), or the
// next retransmission event. Returns ok=false when nothing is pending.
func (n *Network) nextEventBoundary() (int64, bool) {
	boundary, ok := int64(0), false
	if n.hard != nil {
		if sched := n.hard.ScheduledKillCycles(); n.killCursor < len(sched) {
			boundary, ok = sched[n.killCursor]-1, true
		}
	}
	if n.rel != nil {
		if when, relOK := n.rel.nextEvent(); relOK && (!ok || when < boundary) {
			boundary, ok = when, true
		}
	}
	return boundary, ok
}

// fastForward advances up to limit idle cycles, stepping — rather than
// skipping — any cycle a scheduled kill boundary or retransmission event
// lands on, so those observers run inside a real Step where component wakes
// are legal. Returns the cycles advanced; stops early if a stepped boundary
// re-activates the network.
func (n *Network) fastForward(limit int64) int64 {
	var advanced int64
	for advanced < limit {
		if !n.kernel.FullyIdle() {
			return advanced
		}
		span := limit - advanced
		if boundary, ok := n.nextEventBoundary(); ok {
			if gap := boundary - n.Cycle(); gap < span {
				if gap > 0 {
					advanced += n.kernel.FastForward(gap)
				}
				// Step the boundary cycle itself: the epoch or
				// retransmission observer fires with Stepping() true.
				n.kernel.Step()
				advanced++
				continue
			}
		}
		return advanced + n.kernel.FastForward(span)
	}
	return advanced
}

// RecoveryPending reports whether scheduled recovery machinery could still
// change the network's fate without any new injection: an upcoming scheduled
// kill (whose epoch may free wedged traffic and retire unreachable packets),
// or live retransmission entries awaiting their timeouts. Drain loops use it
// to distinguish "quiescent but recovery is coming" from a true dead end.
func (n *Network) RecoveryPending() bool {
	if n.hard != nil {
		if sched := n.hard.ScheduledKillCycles(); n.killCursor < len(sched) {
			return true
		}
	}
	return n.rel != nil && len(n.rel.entries) > 0
}

// Undeliverable returns how many packets the network retired as provably
// undeliverable (partitioned destinations, exhausted retransmissions).
func (n *Network) Undeliverable() int64 { return n.undeliverable }

// Epochs returns how many reconfiguration epochs have run.
func (n *Network) Epochs() int64 { return n.epochs }

// LastEpochCycle returns the cycle of the most recent reconfiguration
// epoch, -1 if none has run.
func (n *Network) LastEpochCycle() int64 { return n.lastEpochCycle }

// CurrentFaults returns the permanent-fault set the active route table was
// built for (the zero set when no hard faults are armed or none are dead).
func (n *Network) CurrentFaults() routing.FaultSet { return n.curFaults }

// PartitionedPairs counts ordered (src, dst) core pairs, src != dst, that
// the active route table cannot connect — the reachability damage report.
// O(cores²); call for reports, not per cycle.
func (n *Network) PartitionedPairs() int {
	cores := len(n.nis)
	cut := 0
	for s := 0; s < cores; s++ {
		for d := 0; d < cores; d++ {
			if s != d && !n.routes.Reachable(noc.NodeID(s), noc.NodeID(d)) {
				cut++
			}
		}
	}
	return cut
}
