package sim

import "math"

// Never is the horizon a component reports when no amount of elapsed time
// will change its externally visible state — only a neighbor's write (and the
// Wake that must accompany it) can. It is also what NextDue returns from an
// empty wheel.
const Never int64 = math.MaxInt64

// Horizoned extends Quiescable with a conservative next-wake estimate: the
// earliest future cycle at which the component's externally visible state
// could change absent new input. A component that is not Quiet but whose
// horizon lies beyond the next cycle is parked exactly like a quiet one —
// dropped from the active set — and re-activated either by an explicit Wake
// (the cross-component invalidation edge, unchanged) or by the kernel's
// timing wheel when it reports a finite horizon.
//
// The contract mirrors Quiet's: Horizon must be a pure function of committed
// state, evaluated right after the component's Commit, and must be
// conservative — reporting a horizon later than the true one silently
// diverges from eager evaluation (the debug oracle of SetOracle exists to
// catch exactly that). Horizon(now) <= now+1 means "evaluate me next cycle"
// (no parking); Never means "only an external Wake can affect me".
type Horizoned interface {
	Quiescable
	// Horizon returns the earliest cycle > now at which this component's
	// state can change with no new input, or Never.
	Horizon(now int64) int64
}

// timingWheel is a two-level hierarchical timing wheel holding pending
// component wake-ups. Level 0 has 64 one-cycle slots (wakes within the next
// 64 cycles), level 1 has 64 slots of 64 cycles (wakes within the next 4096),
// and everything further lands in an overflow list that is re-filed as the
// clock approaches. The kernel pops due entries at the top of every Step and
// AdvanceTo jumps the clock straight to the earliest entry while the
// component set is fully idle.
type timingWheel struct {
	// base is the cycle slot 0 of level 0 corresponds to. Entries are filed
	// relative to it and it only moves forward (advance).
	base int64
	l0   [64][]wheelEntry
	l1   [64][]wheelEntry
	over []wheelEntry
	// next caches the earliest scheduled cycle, Never when empty.
	next int64
	n    int
}

type wheelEntry struct {
	at int64
	h  Handle
}

func newTimingWheel(base int64) *timingWheel {
	return &timingWheel{base: base, next: Never}
}

// len returns the number of pending entries.
func (w *timingWheel) len() int { return w.n }

// nextDue returns the earliest scheduled cycle, Never when empty.
func (w *timingWheel) nextDue() int64 { return w.next }

// schedule files a wake for handle h at cycle `at` (must be > base-relative
// now; the kernel clamps earlier requests to immediate wakes instead).
func (w *timingWheel) schedule(at int64, h Handle) {
	e := wheelEntry{at: at, h: h}
	switch d := at - w.base; {
	case d < 64:
		w.l0[at&63] = append(w.l0[at&63], e)
	case d < 64*64:
		w.l1[(at>>6)&63] = append(w.l1[(at>>6)&63], e)
	default:
		w.over = append(w.over, e)
	}
	w.n++
	if at < w.next {
		w.next = at
	}
}

// popDue moves the wheel's base to now, cascading level-1 and overflow
// entries downward, and fires k.Wake for every entry due at or before now.
// Entries scheduled exactly at now wake for the cycle about to be stepped.
// Taking the kernel rather than a callback keeps the steady-state step
// allocation-free (a closure per pop would escape); Wake itself routes to
// the right path in every execution mode (serial and sharded).
func (w *timingWheel) popDue(now int64, k *Kernel) {
	if w.n == 0 || w.next > now {
		w.base = now
		return
	}
	for w.base <= now {
		slot := &w.l0[w.base&63]
		for _, e := range *slot {
			// A slot is revisited every 64 cycles; only entries for this lap
			// are due.
			if e.at <= now {
				k.Wake(e.h)
				w.n--
			} else {
				// Future lap: re-file (rare — only when base jumps > 64).
				w.scheduleLater(e)
			}
		}
		*slot = (*slot)[:0]
		w.base++
		if w.base&63 == 0 {
			// Entering a new level-1 slot: cascade its entries into level 0.
			s1 := &w.l1[(w.base>>6)&63]
			for _, e := range *s1 {
				w.n--
				w.scheduleLater(e)
			}
			*s1 = (*s1)[:0]
			if (w.base>>6)&63 == 0 {
				// New level-1 lap: re-file overflow entries now in range.
				over := w.over
				w.over = w.over[:0]
				for _, e := range over {
					w.n--
					w.scheduleLater(e)
				}
			}
		}
		if w.n == 0 {
			break
		}
	}
	w.base = now
	w.recomputeNext()
}

// scheduleLater re-files an entry relative to the current base during a
// cascade (the entry count was already decremented by the caller).
func (w *timingWheel) scheduleLater(e wheelEntry) {
	switch d := e.at - w.base; {
	case d < 64:
		w.l0[e.at&63] = append(w.l0[e.at&63], e)
	case d < 64*64:
		w.l1[(e.at>>6)&63] = append(w.l1[(e.at>>6)&63], e)
	default:
		w.over = append(w.over, e)
	}
	w.n++
}

// recomputeNext rescans for the earliest pending entry. Called after pops;
// the wheel is small (its slots hold only genuinely scheduled wakes) so a
// scan is cheaper than a priority structure on every schedule.
func (w *timingWheel) recomputeNext() {
	w.next = Never
	if w.n == 0 {
		return
	}
	for i := range w.l0 {
		for _, e := range w.l0[i] {
			if e.at < w.next {
				w.next = e.at
			}
		}
	}
	for i := range w.l1 {
		for _, e := range w.l1[i] {
			if e.at < w.next {
				w.next = e.at
			}
		}
	}
	for _, e := range w.over {
		if e.at < w.next {
			w.next = e.at
		}
	}
}

// reset drops every pending entry and rebases the wheel — the
// snapshot-restore path (wheel state is derivable, never serialized: restored
// components are woken wholesale and re-report their horizons within one
// cycle).
func (w *timingWheel) reset(base int64) {
	for i := range w.l0 {
		w.l0[i] = w.l0[i][:0]
	}
	for i := range w.l1 {
		w.l1[i] = w.l1[i][:0]
	}
	w.over = w.over[:0]
	w.base, w.next, w.n = base, Never, 0
}
