package probe

// Shard children: probe support for sharded simulations.
//
// A sharded kernel evaluates components on worker goroutines, so they
// cannot emit into the parent's ring directly — the ring is order-
// sensitive (exporters replay it) and the serial event order is part of
// the bit-exactness contract. Instead each shard gets a child probe: the
// same emit API, but events are appended to a per-shard buffer tagged with
// the evaluation slot they were emitted from, and per-run totals
// accumulate shard-locally. At the end of every step the epilogue (on the
// stepping goroutine, after the last barrier) calls MergeShards, which
// k-way merges the buffers by tag into the parent ring and folds the
// totals — reproducing, event for event, the stream a serial walk of the
// same cycle would have produced.
//
// The tag is ordered exactly like the serial walk visits evaluation slots:
//
//	key = phase << 60 | component << 20 | seq
//
// Compute events (phase 0) precede all commit events; commit events order
// by component registration index (the kernel registers early components
// before late ones, so the phase-1/phase-2 split never reorders them); seq
// preserves emission order within one component evaluation. Each component
// lives in exactly one shard, so keys never tie across children, and each
// child's buffer is naturally key-sorted (its worker walks components in
// ascending order, phase by phase) — the merge is a linear k-way pick.
//
// Per-router metrics need none of this: with receiver-side shard
// assignment every metrics write for router n (buffer accounting from its
// incoming links, switch activity from its own evaluation) is performed by
// shard(n), so children write the parent's routers slice directly —
// distinct elements, no races, nothing to fold.

// taggedEvent is one buffered child event plus its merge key.
type taggedEvent struct {
	key uint64
	ev  Event
}

// ShardChildren returns n child probes for a sharded simulation, creating
// them on first use and reusing them on repeat calls (lockstep multi-
// network setups share one parent and step sequentially, so their kernels
// may share children too). Call after Attach so children alias the
// per-router metrics. Children of a ring-only probe are ring-only too.
func (p *Probe) ShardChildren(n int) []*Probe {
	if p.parent != nil {
		panic("probe: ShardChildren on a shard child")
	}
	for len(p.children) < n {
		p.children = append(p.children, &Probe{parent: p, ringOnly: p.ringOnly})
	}
	for _, c := range p.children {
		c.routers = p.routers
		c.width, c.height, c.ports, c.cores = p.width, p.height, p.ports, p.cores
	}
	return p.children[:n]
}

// SetShardContext tags subsequent emits on this child with the evaluation
// slot (phase, component index). The kernel's eval hook calls it before
// every component evaluation; see sim.SetEvalHook.
func (p *Probe) SetShardContext(phase, comp int) {
	p.ctxKey = uint64(phase)<<60 | uint64(comp)<<20
	p.ctxSeq = 0
}

// MergeShards drains every child's event buffer into the parent ring in
// serial emission order and folds child totals into the parent. Called
// from the step epilogue on the stepping goroutine, after the cycle's last
// barrier (all workers quiescent) and before the sampler observer ticks.
// Steady-state it allocates nothing: buffers keep their capacity.
func (p *Probe) MergeShards() {
	children := p.children
	total := 0
	for _, c := range children {
		total += len(c.shardBuf)
	}
	if total > 0 {
		if cap(p.heads) < len(children) {
			p.heads = make([]int, len(children))
		}
		heads := p.heads[:len(children)]
		for i := range heads {
			heads[i] = 0
		}
		for merged := 0; merged < total; merged++ {
			best := -1
			var bestKey uint64
			for i, c := range children {
				h := heads[i]
				if h >= len(c.shardBuf) {
					continue
				}
				if k := c.shardBuf[h].key; best < 0 || k < bestKey {
					best, bestKey = i, k
				}
			}
			p.emit(children[best].shardBuf[heads[best]].ev)
			heads[best]++
		}
	}
	for _, c := range children {
		c.shardBuf = c.shardBuf[:0]
		if c.totals != (Totals{}) {
			p.totals.add(c.totals)
			c.totals = Totals{}
		}
	}
}

// add folds another totals block into t.
func (t *Totals) add(o Totals) {
	t.Injects += o.Injects
	t.Delivers += o.Delivers
	t.Traversals += o.Traversals
	t.Collisions += o.Collisions
	t.Aborts += o.Aborts
	t.Decodes += o.Decodes
	t.CreditStalls += o.CreditStalls
	t.BufWrites += o.BufWrites
	t.BufReads += o.BufReads
	t.LinkFlits += o.LinkFlits
}
