package noc

// Arena is a flit allocator backed by pooled blocks and a freelist. The
// steady-state datapath allocates flits constantly — one per injected flit at
// the network interface, one per XOR superposition at a colliding output, one
// per decode-register recovery at an input port — and every one of those
// objects has a short, well-defined lifetime that ends inside the simulator
// (delivery, chain-register death, stale-copy replacement). Carving them from
// recycled blocks instead of the heap makes the hot path allocation-free and
// keeps the working set dense.
//
// An Arena is single-owner: the sharded executor gives each shard its own
// instance, and every alloc/release happens on the goroutine driving that
// shard (allocations in compute phases, releases in commit phases, with
// barriers in between). Flits may migrate between arenas — allocated at a
// source interface in one shard, released at a destination in another — so a
// single arena's live counter can go negative; only the sum over all arenas
// of a network is meaningful (see Outstanding).
//
// All methods are safe on a nil receiver: allocation falls back to the heap
// and release becomes a no-op, so call sites need no arena-enabled branch.
type Arena struct {
	free  []*Flit
	parts [][]*Flit
	live  int
}

// arenaBlock is the number of flits carved per pooled block.
const arenaBlock = 256

// alloc returns a zeroed flit from the freelist, growing it by one block when
// empty.
func (a *Arena) alloc() *Flit {
	if a == nil {
		return &Flit{}
	}
	if len(a.free) == 0 {
		block := make([]Flit, arenaBlock)
		for i := range block {
			a.free = append(a.free, &block[i])
		}
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.live++
	return f
}

// NewFlit builds flit seq of packet p from the pool.
func (a *Arena) NewFlit(p *Packet, seq int) *Flit {
	f := a.alloc()
	f.Packet, f.Seq, f.Raw = p, seq, p.Payloads[seq]
	return f
}

// Clone returns a pooled copy of src with its constituent set cleared — the
// decode-path presentation copy: the recovered original may still be live in
// an upstream buffer, so its lookahead route must not be overwritten in
// place.
func (a *Arena) Clone(src *Flit) *Flit {
	f := a.alloc()
	*f = *src
	f.Parts = nil
	return f
}

// partsBuf returns an empty constituent-set slice with room for n flits,
// reusing a pooled slice when one is available.
func (a *Arena) partsBuf(n int) []*Flit {
	if a == nil || len(a.parts) == 0 {
		if n < 4 {
			n = 4
		}
		return make([]*Flit, 0, n)
	}
	s := a.parts[len(a.parts)-1]
	a.parts = a.parts[:len(a.parts)-1]
	return s
}

// Release returns a dead flit to the pool. The caller asserts nothing in the
// simulation references f anymore; an encoded flit's Parts slice is recycled
// with it (the constituent flits themselves are released separately by
// whoever owns their lifetime). The flit is scrubbed so a use-after-release
// fails loudly on the nil Packet instead of silently reading recycled state.
func (a *Arena) Release(f *Flit) {
	if a == nil {
		return
	}
	if f.Parts != nil {
		a.parts = append(a.parts, f.Parts[:0])
	}
	*f = Flit{}
	a.live--
	a.free = append(a.free, f)
}

// Outstanding returns allocations minus releases. Summed over every arena of
// a network it counts the pooled flits still live inside the simulation —
// zero once all traffic has drained (the leak invariant the network tests
// assert). A single shard's arena may report a negative value when flits
// drain into neighboring shards.
func (a *Arena) Outstanding() int {
	if a == nil {
		return 0
	}
	return a.live
}
