package router

import (
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/noc"
)

// nonspecRouter is the canonical sequential baseline of §3.1.1: switch
// arbitration and switch traversal execute back-to-back within one long
// clock cycle (0.92 ns, Table 2), with lookahead route computation
// overlapped. Outputs are productive every cycle regardless of internal
// contention — the architecture trades clock period for efficiency.
type nonspecRouter struct {
	base
	// in is a value slab; its FIFO rings are carved from one shared slot slab.
	in   []buffer.FIFO
	arb  []arbiter.Arbiter
	lock []int

	// staged actions
	pops     []bool
	lockNext []int

	// per-cycle scratch
	req  []uint32
	head []*noc.Flit
	// touched is the dirty-output mask of the current cycle: outputs with at
	// least one requester, i.e. the only ones whose lockNext Compute wrote.
	// Commit applies exactly these — a requestless output's lock is held by
	// not touching it at all.
	touched uint32
}

func newNonSpec(cfg Config) *nonspecRouter {
	s := cfg.Slabs
	r := &s.nonspecs.take(1, s.chunk)[0]
	r.init(cfg)
	n := r.ports
	r.in = s.fifos.take(n, s.chunk)
	r.arb = s.arbIfs.take(n, s.chunk)
	ints := s.ints.take(2*n, s.chunk)
	r.lock = ints[:n:n]
	r.lockNext = ints[n:]
	r.pops = s.bools.take(n, s.chunk)
	r.req = s.uint32s.take(n, s.chunk)
	r.head = s.flits.take(n, s.chunk)
	sl := buffer.SlotsFor(cfg.BufferDepth)
	slots := s.flits.take(n*sl, s.chunk)
	arb := arbMaker(&cfg, n)
	for p := range r.in {
		r.in[p].Init(cfg.BufferDepth, slots[p*sl:(p+1)*sl:(p+1)*sl])
		r.arb[p] = arb(p)
		r.lock[p] = -1
	}
	r.initReceivers(r)
	return r
}

func (r *nonspecRouter) receive(p noc.Port, f *noc.Flit, cycle int64) {
	if f.Encoded {
		panic("router: non-speculative router received an encoded flit")
	}
	if r.overflow(p, f, cycle, r.in[p].Free()) {
		return
	}
	f.OutPort = r.route(f.Packet.Dst)
	r.in[p].Push(f)
	r.counters().BufWrite++
	if pr := r.probe(); pr != nil {
		pr.BufWrite(cycle, r.node(), int(p), f.Packet.ID, f.Seq)
	}
}

// BufferedFlits returns the number of flits held in input FIFOs.
func (r *nonspecRouter) BufferedFlits() int {
	n := 0
	for i := range r.in {
		n += r.in[i].Len()
	}
	return n
}

// PortStates implements Router: input FIFO occupancy plus the matching
// output's wormhole lock and link credits.
func (r *nonspecRouter) PortStates(buf []PortState) []PortState {
	for p := 0; p < r.ports; p++ {
		ps := PortState{Buffered: r.in[p].Len(), OutMode: -1, OutLock: -1, OutCredits: -1}
		if r.outLink[p] != nil {
			ps.OutLock = r.lock[p]
			ps.OutCredits = r.outLink[p].Credits()
		}
		buf = append(buf, ps)
	}
	return buf
}

// Quiet implements sim.Quiescable: with every input FIFO empty the router
// stages nothing and changes nothing. Output locks may outlive the local
// buffers (upstream bubble inside a wormhole packet) but are held, not
// mutated, by empty cycles; the arrival that ends the bubble re-activates
// the router through its input link's wake.
func (r *nonspecRouter) Quiet() bool {
	for i := range r.in {
		if r.in[i].Len() != 0 {
			return false
		}
	}
	return true
}

// Flush implements Router: drains every input FIFO through drop and clears
// all wormhole locks and staged actions.
func (r *nonspecRouter) Flush(drop func(*noc.Flit)) {
	for p := range r.in {
		r.dropAll(&r.in[p], drop)
		r.lock[p] = -1
		r.pops[p] = false
	}
	r.touched = 0
}

// Compute arbitrates each output and traverses the winner in the same cycle.
func (r *nonspecRouter) Compute(cycle int64) {
	c := r.counters()
	pr := r.probe()

	// Gather requests per output from the input FIFO heads.
	req, head := r.req, r.head
	for i := range req {
		req[i] = 0
		head[i] = nil
	}
	for i := range r.in {
		f := r.in[i].Head()
		if f == nil {
			continue
		}
		head[i] = f
		if r.outLink[f.OutPort] == nil {
			panic("router: flit routed to unwired output")
		}
		req[f.OutPort] |= 1 << i
	}

	r.touched = 0
	for o := noc.Port(0); o < noc.Port(r.ports); o++ {
		link := r.outLink[o]
		if link == nil || req[o] == 0 {
			continue
		}
		r.touched |= 1 << uint(o)
		r.lockNext[o] = r.lock[o]
		if !link.Ready(cycle) {
			if pr != nil {
				pr.CreditStall(cycle, r.node(), int(o))
			}
			continue // backpressure (or injected stall): output stalls, lock holds
		}

		var winner int
		if owner := r.lock[o]; owner >= 0 {
			// Wormhole continuation: the output belongs to a multi-flit
			// packet until its tail passes.
			if req[o]&(1<<owner) == 0 {
				continue // upstream bubble inside the packet
			}
			winner = owner
		} else {
			w, ok := r.arb[o].Grant(req[o])
			if !ok {
				continue
			}
			c.Arb++
			winner = w
		}

		f := head[winner]
		if f.MultiFlit() {
			if f.Seq == 0 {
				r.lockNext[o] = winner
			}
			if f.Tail() {
				r.lockNext[o] = -1
			}
		}
		link.Send(f)
		r.pops[winner] = true
		c.Xbar++
		c.LinkFlit++
		c.OutputActive++
		if pr != nil {
			pr.Traverse(cycle, r.node(), int(o), f.Packet.ID, f.Seq)
		}
	}
}

// Commit pops the traversed flits and returns their credits upstream.
func (r *nonspecRouter) Commit(cycle int64) {
	c := r.counters()
	pr := r.probe()
	for i := range r.in {
		if r.pops[i] {
			r.pops[i] = false
			r.in[i].Pop()
			c.BufRead++
			if pr != nil {
				pr.BufRead(cycle, r.node(), i, 1)
			}
			r.returnCredits(noc.Port(i), 1)
		}
	}
	for m := r.touched; m != 0; m &= m - 1 {
		o := bits.TrailingZeros32(m)
		r.lock[o] = r.lockNext[o]
	}
	if pr != nil && !pr.RingOnly() {
		pr.Occupancy(r.node(), r.BufferedFlits())
	}
}
