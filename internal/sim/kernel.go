package sim

import (
	"fmt"
	"math/bits"
)

// oracleViolation is the panic payload of a horizon-contract breach caught
// by the SetOracle checker; it implements error so tests can assert on it.
type oracleViolation struct {
	comp  int
	cycle int64
}

func (v oracleViolation) Error() string {
	return fmt.Sprintf("sim: component %d mutated state while parked at cycle %d (horizon/quiescence contract violation)", v.comp, v.cycle)
}

// Clocked is implemented by every component that participates in the
// synchronous two-phase simulation. Each cycle the kernel first calls
// Compute on every component (all components observe the state as it was at
// the start of the cycle and stage their actions), then Commit on every
// component (staged actions are applied and become visible at the next
// cycle). This models edge-triggered hardware without ordering artifacts:
// no component ever observes another component's same-cycle updates.
//
// The Compute contract — read only committed state, stage into storage you
// own (a component may also stage onto a channel it is the sole driver of,
// e.g. Link.Send) — is what makes the compute phase embarrassingly
// parallel: see SetSharding.
type Clocked interface {
	// Compute stages the component's actions for the given cycle based on
	// the committed state from the previous cycle.
	Compute(cycle int64)
	// Commit applies the actions staged by Compute.
	Commit(cycle int64)
}

// Quiescable is implemented by components that can tell the kernel they are
// idle. Quiet must be a pure function of committed state, evaluated right
// after the component's Commit: it reports that stepping the component
// would change nothing observable until some neighbor writes to it again.
//
// A component reporting Quiet is dropped from the kernel's active set —
// its Compute and Commit stop being called — so the contract has a second
// half: whatever path a neighbor uses to hand the component new work must
// call the kernel's Wake for it (the owner that wires components together
// installs those hooks; see internal/network). A component that goes quiet
// with latent staged state, or that is written without a wake, silently
// diverges from the always-evaluate reference — keep Quiet conservative.
type Quiescable interface {
	Clocked
	// Quiet reports that the component holds no pending work.
	Quiet() bool
}

// Handle identifies a registered component for Wake calls.
type Handle int

// Kernel drives a set of Clocked components through lockstep cycles,
// skipping components that have declared themselves quiescent. It runs
// serially by default; SetSharding partitions the components across a
// persistent worker pool for intra-simulation parallelism with bit-exact
// results.
type Kernel struct {
	components []Clocked
	// quiesc[i] is components[i]'s Quiescable interface, nil if it does not
	// opt in (such components are evaluated every cycle forever).
	quiesc []Quiescable
	// hzn[i] is components[i]'s Horizoned interface, nil if it does not opt
	// in. A non-quiet component with a horizon beyond the next cycle is
	// parked like a quiet one and re-woken by the timing wheel (finite
	// horizon) or an external Wake (Never).
	hzn []Horizoned
	// active[i] marks components evaluated this cycle (1 = active). Wake may
	// flip an entry mid-step: a wake during the compute phase takes effect
	// for the same cycle's commit phase if the target's registration index
	// has not been passed yet (late components are registered last for
	// exactly this reason), otherwise next cycle. Plain loads/stores on the
	// serial path; atomic on the sharded path, where any worker may wake any
	// component.
	active []uint32
	// actWords is a per-64-component summary bitmap over active, maintained
	// on the serial path only (nil once sharded). The invariant is one-sided:
	// every component with a raised flag has its bit set, but a bit may be
	// stale (component went quiet without clearing it) — the sparse walk
	// prunes stale bits lazily as it visits them.
	actWords []uint64
	// wheel holds pending timed wake-ups for components that parked with a
	// finite horizon. Allocated lazily when the first Horizoned component
	// registers; nil on kernels with none (then parking is Wake-only). On
	// the sharded path per-shard wheels take over (see sharding.wheels).
	wheel *timingWheel
	// oracle, when set, switches the serial step into contract-checking
	// mode: every component is evaluated eagerly and any notionally-parked
	// component whose state hash changes across its evaluation under-reported
	// its horizon (or went quiet with latent work). See SetOracle.
	oracle  func(Handle) uint64
	oracleH []uint64
	// idle counts inactive components on the serial path; when it equals
	// len(components) a step is pure clock advance. The sharded path tracks
	// idleness per shard instead (see sharding.idle).
	idle int
	// alwaysActive disables quiescence skipping (reference mode used by
	// equivalence tests and benchmarks).
	alwaysActive bool
	cycle        int64

	// lateMark is the registration index of the first late component (see
	// AddLate); len(components) while none are registered. Early components
	// commit before every late component, matching the serial registration
	// order, so the sharded commit phases preserve cross-component write
	// semantics (links commit after the routers that stage credit returns).
	lateMark int

	// stepping guards against reentrant stepping and mid-step registration:
	// observer/epilogue hooks and component methods must not call Step, Add,
	// or AddLate. The guard is always on — it costs two byte writes per
	// step — so contract violations fail loudly in every build.
	stepping bool

	// observers are called in order at the end of every Step with the
	// completed cycle and the number of components evaluated next step
	// (observability hooks; see internal/probe and internal/telemetry).
	observers []func(cycle int64, active int)
	// epilogue, when set, runs at the end of every Step before the observer,
	// on the stepping goroutine with all workers quiescent. The sharded
	// network uses it to drain per-shard mailboxes (deliveries, probe event
	// buffers) deterministically.
	epilogue func(cycle int64)

	// sh is the sharded execution state, nil on the serial path.
	sh *sharding

	// lanes are the typed dense-iteration segments of the serial step,
	// sorted by start handle (see BindLane). Empty means all-generic walks.
	lanes []laneSeg
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{lateMark: -1}
}

// Add registers a component and returns its wake handle. Components are
// evaluated in registration order; compute order is not observable (two-
// phase protocol), but commit order is load-bearing for cross-component
// writes performed during commits (e.g. links must commit after the
// routers that stage credit returns on them), so registration order is
// preserved even when quiescent components are skipped.
//
// Add panics once a late component has been registered: the sharded
// executor relies on every early component preceding every late one.
func (k *Kernel) Add(c Clocked) Handle {
	if k.stepping {
		panic("sim: Add called during Step (hooks must not register components)")
	}
	if k.lateMark >= 0 {
		panic("sim: Add after AddLate (late components must be registered last)")
	}
	return k.add(c)
}

// AddLate registers a component that commits in the late phase: after every
// early component, in registration order — the slot the network wires links
// into, so credits and flits staged during early commits are applied the
// same cycle. On the serial path AddLate is identical to Add (late
// components are last in registration order anyway); the sharded executor
// uses the early/late split as its commit barrier.
func (k *Kernel) AddLate(c Clocked) Handle {
	if k.stepping {
		panic("sim: AddLate called during Step (hooks must not register components)")
	}
	if k.lateMark < 0 {
		k.lateMark = len(k.components)
	}
	return k.add(c)
}

func (k *Kernel) add(c Clocked) Handle {
	if k.sh != nil {
		panic("sim: Add after SetSharding")
	}
	h := Handle(len(k.components))
	k.components = append(k.components, c)
	q, _ := c.(Quiescable)
	k.quiesc = append(k.quiesc, q)
	hz, _ := c.(Horizoned)
	k.hzn = append(k.hzn, hz)
	if hz != nil && k.wheel == nil {
		k.wheel = newTimingWheel(k.cycle)
	}
	k.active = append(k.active, 1)
	if int(h)>>6 >= len(k.actWords) {
		k.actWords = append(k.actWords, 0)
	}
	k.actWords[h>>6] |= 1 << (h & 63)
	return h
}

// SetAlwaysActive switches the kernel between the quiescence-skipping fast
// path (default) and the always-evaluate reference mode. Enabling reference
// mode re-activates every component.
func (k *Kernel) SetAlwaysActive(on bool) {
	k.alwaysActive = on
	if on {
		for i := range k.active {
			k.active[i] = 1
		}
		k.setAllBits()
		k.idle = 0
		if k.sh != nil {
			k.sh.resetIdle()
		}
		k.resetWheels()
	}
}

// setAllBits raises every summary-bitmap bit, masking the tail word so no
// bit beyond the registered component count is ever set (the sparse walk
// indexes components directly from bit positions).
func (k *Kernel) setAllBits() {
	for i := range k.actWords {
		k.actWords[i] = ^uint64(0)
	}
	if tail := len(k.components) & 63; tail != 0 && len(k.actWords) > 0 {
		k.actWords[len(k.actWords)-1] = uint64(1)<<tail - 1
	}
}

// resetWheels drops every pending timed wake. Only legal when all components
// are active (a pending wake for an awake component is redundant; dropping a
// parked component's wake would strand it).
func (k *Kernel) resetWheels() {
	if k.wheel != nil {
		k.wheel.reset(k.cycle)
	}
	if k.sh != nil {
		for _, w := range k.sh.wheels {
			w.reset(k.cycle)
		}
	}
}

// Wake re-activates a component so it is evaluated again; waking an
// already-active component is a no-op.
//
// Concurrency contract: on the serial path Wake must be called from the
// stepping goroutine only (component Compute/Commit methods, or between
// steps). On the sharded path Wake is atomic and may be called from any
// worker — that is what lets NI injection and cross-shard neighbors wake
// components they do not own — with one restriction the network wiring
// upholds: during the early commit phase wakes may target only late
// components, and during the late phase only early ones, so a wake never
// races the owner shard's own quiescence bookkeeping for the same
// component.
func (k *Kernel) Wake(h Handle) {
	if sh := k.sh; sh != nil {
		sh.wake(k, h)
		return
	}
	if k.active[h] == 0 {
		k.active[h] = 1
		k.actWords[h>>6] |= 1 << (h & 63)
		k.idle--
	}
}

// Stepping reports whether the kernel is inside Step. Observer hooks fire
// both at the end of every stepped cycle (stepping true) and once per cycle
// skipped by FastForward/SkipIdle (stepping false); a hook that needs to
// Wake components — legal only when a real step's quiescence bookkeeping
// brackets the wake — checks this and arranges for the cycle to be stepped
// instead (see Network.fastForward).
func (k *Kernel) Stepping() bool { return k.stepping }

// Waker returns a closure waking h, for wiring into components that cannot
// know about the kernel.
func (k *Kernel) Waker(h Handle) func() {
	return func() { k.Wake(h) }
}

// WakeInt is Wake with an untyped handle — the noc.Waker form. It lets
// hot-path wiring (links) hold the kernel through one shared interface value
// instead of a pair of per-component closures.
func (k *Kernel) WakeInt(h int) { k.Wake(Handle(h)) }

// SetObserver installs a hook called at the end of every Step with the
// completed cycle number and the active-component count, replacing any
// hooks installed so far. A nil fn removes them all. Hooks run on the
// stepping goroutine with all shard workers quiescent; they must not call
// Step, Add, or AddLate — the kernel's reentrancy guard panics if they do.
func (k *Kernel) SetObserver(fn func(cycle int64, active int)) {
	k.observers = k.observers[:0]
	k.AddObserver(fn)
}

// AddObserver appends an observer hook, keeping those already installed;
// hooks fire in installation order. A nil fn is ignored. The same
// contract as SetObserver applies.
func (k *Kernel) AddObserver(fn func(cycle int64, active int)) {
	if fn != nil {
		k.observers = append(k.observers, fn)
	}
}

// SetEpilogue installs a hook that runs at the end of every Step, before
// the observer, on the stepping goroutine with all shard workers quiescent.
// The sharded network drains its per-shard mailboxes here (deliveries in
// interface order, probe event buffers merged into registration order) so
// every cross-shard effect lands deterministically. The same reentrancy
// contract as SetObserver applies.
func (k *Kernel) SetEpilogue(fn func(cycle int64)) {
	k.epilogue = fn
}

// ActiveComponents returns how many components will be evaluated next step.
func (k *Kernel) ActiveComponents() int {
	if k.sh != nil {
		return len(k.components) - k.sh.totalIdle()
	}
	return len(k.components) - k.idle
}

// FullyIdle reports that every component is quiescent and no timed wake is
// pending: a Step would be pure clock advance for any number of cycles.
// Always false in always-active reference mode.
func (k *Kernel) FullyIdle() bool {
	return k.ActiveComponents() == 0 && len(k.components) > 0 && k.pendingWakes() == 0
}

// Idle reports that no component is scheduled for evaluation next cycle.
// Unlike FullyIdle it ignores the timing wheel: an Idle kernel may still
// hold future wakes, so the clock can only be skipped up to NextWake (see
// SkipIdle).
func (k *Kernel) Idle() bool { return k.ActiveComponents() == 0 && len(k.components) > 0 }

// pendingWakes counts scheduled timed wake-ups across all wheels.
func (k *Kernel) pendingWakes() int {
	if k.sh != nil {
		n := 0
		for _, w := range k.sh.wheels {
			n += w.len()
		}
		return n
	}
	if k.wheel != nil {
		return k.wheel.len()
	}
	return 0
}

// NextWake returns the earliest scheduled timed wake-up, or Never when the
// wheels are empty.
func (k *Kernel) NextWake() int64 {
	if k.sh != nil {
		next := Never
		for _, w := range k.sh.wheels {
			if d := w.nextDue(); d < next {
				next = d
			}
		}
		return next
	}
	if k.wheel != nil {
		return k.wheel.nextDue()
	}
	return Never
}

// Cycle returns the number of completed cycles.
func (k *Kernel) Cycle() int64 {
	return k.cycle
}

// SetCycle forces the kernel clock, the snapshot-restore entry point: a
// restored network resumes at the cycle it was saved at. Must not be called
// mid-step.
func (k *Kernel) SetCycle(c int64) {
	if k.stepping {
		panic("sim: SetCycle during Step")
	}
	k.cycle = c
	// Rebase the wheels: pending entries were filed against the old clock.
	// SetCycle's only caller (snapshot restore) pairs it with WakeAll, so
	// every component is awake and dropping its timed wake is harmless — it
	// re-reports its horizon at its next evaluation.
	k.resetWheels()
}

// WakeAll re-activates every component. Snapshot restore uses it instead of
// reconstructing the saved activity set: over-waking is unobservable (the
// quiescence fast path is proven bit-exact against always-active evaluation,
// so evaluating a quiet component changes nothing), and the true set
// re-converges within a cycle. Works on serial and sharded kernels.
func (k *Kernel) WakeAll() {
	if k.stepping {
		panic("sim: WakeAll during Step")
	}
	for i := range k.active {
		k.active[i] = 1
	}
	k.setAllBits()
	k.idle = 0
	if k.sh != nil {
		k.sh.resetIdle()
	}
	k.resetWheels()
}

// Step advances the simulation by one cycle.
func (k *Kernel) Step() {
	if k.stepping {
		panic("sim: Step called reentrantly (observer/epilogue hooks must not step the kernel)")
	}
	k.stepping = true
	if k.sh != nil {
		k.stepSharded()
	} else {
		k.stepSerial()
	}
	if k.epilogue != nil {
		k.epilogue(k.cycle)
	}
	if len(k.observers) > 0 {
		active := k.ActiveComponents()
		for _, o := range k.observers {
			o(k.cycle, active)
		}
	}
	k.cycle++
	k.stepping = false
}

// sparseRatio picks the serial walk: when fewer than one component in
// sparseRatio is active, the summary-bitmap walk (word loads plus bit
// iteration over just the active set) beats the flag-scan walk, which
// touches every component's flag twice per cycle however few are awake. A
// performance knob only — both walks are bit-identical (the sparse walk
// visits exactly the raised-flag set in registration order, with the same
// flag-at-visit-time wake semantics). In the dense regime the check is a
// single compare, so the event-horizon machinery costs ~0 there.
const sparseRatio = 16

// stepSerial is the single-goroutine step: the reference semantics the
// sharded executor reproduces bit for bit. Each phase walks lane segments
// and generic ranges interleaved in registration order (see lane.go); with
// no lanes bound the walks reduce to the plain component loops.
func (k *Kernel) stepSerial() {
	if k.wheel != nil && k.wheel.len() != 0 {
		k.wheel.popDue(k.cycle, k)
	}
	if k.oracle != nil {
		k.stepOracle()
		return
	}
	switch n := len(k.components); {
	case k.idle == 0:
		// Everything active: the tight no-flag-check loops, plus the
		// post-commit quiescence check unless in reference mode.
		k.walkCompute(true)
		if k.alwaysActive {
			k.walkCommitAll()
		} else {
			k.walkCommitQuiesce(true)
		}
	case k.idle == n:
		// Fully quiescent network: the cycle is pure clock advance. Wakes
		// only arrive from outside the step (injection) or the wheel pop
		// above (which would have lowered idle), so nothing can need
		// evaluation mid-step.
	case (n-k.idle)*sparseRatio <= n:
		k.walkSparse()
	default:
		k.walkCompute(false)
		k.walkCommitQuiesce(false)
	}
}

// walkSparse is the event-horizon regime's walk: both phases iterate the
// summary bitmap instead of scanning every flag. Bits are a superset of the
// raised flags (see actWords); a bit whose flag turns out clear is pruned in
// passing. Wakes raised mid-phase land in the words being walked: a wake for
// a not-yet-visited position is picked up this phase (bits above the visit
// cursor), one for an already-passed position waits for the next cycle —
// exactly the flag-at-visit-time semantics of the dense walks. Lane segments
// are bypassed: at sparse activity the devirtualized batch loops have no
// edge over a handful of generic dispatches.
func (k *Kernel) walkSparse() {
	cycle := k.cycle
	for w := range k.actWords {
		visited := uint64(0)
		for {
			word := k.actWords[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			bit := uint64(1) << b
			visited |= bit
			i := w<<6 + b
			if k.active[i] != 0 {
				k.components[i].Compute(cycle)
			} else {
				k.actWords[w] &^= bit
			}
		}
	}
	for w := range k.actWords {
		visited := uint64(0)
		for {
			word := k.actWords[w] &^ visited
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			bit := uint64(1) << b
			visited |= bit
			i := w<<6 + b
			if k.active[i] == 0 {
				k.actWords[w] &^= bit
				continue
			}
			k.commitOne(i, cycle, true)
			if k.active[i] == 0 {
				k.actWords[w] &^= bit
			}
		}
	}
}

// Run advances the simulation by n cycles.
func (k *Kernel) Run(n int64) {
	for i := int64(0); i < n; i++ {
		k.Step()
	}
}

// FastForward advances the clock up to n cycles without evaluating any
// component. It is only legal — and only has an effect — while the kernel
// is fully quiescent: a quiescent step is pure clock advance, so skipping
// the component walk is unobservable. Per-cycle hooks (epilogue, observer)
// still fire for every skipped cycle, keeping probed output byte-identical
// to stepping; with no hooks installed the advance is O(1). Returns the
// cycles actually skipped (0 if the kernel is busy or in always-active
// reference mode).
func (k *Kernel) FastForward(n int64) int64 {
	if n <= 0 || !k.FullyIdle() {
		return 0
	}
	if k.epilogue == nil && len(k.observers) == 0 {
		k.cycle += n
		return n
	}
	for i := int64(0); i < n; i++ {
		if k.epilogue != nil {
			k.epilogue(k.cycle)
		}
		for _, o := range k.observers {
			o(k.cycle, 0)
		}
		k.cycle++
	}
	return n
}

// SkipIdle advances the clock while no component is active, up to limit.
// Unlike FastForward it honors the timing wheel: the jump stops at the
// earliest scheduled wake so the next Step pops and evaluates it. Per-cycle
// hooks fire for every skipped cycle exactly as FastForward's do. Returns
// the cycles skipped (0 if any component is active, the kernel is in
// always-active mode, or a wake is due immediately).
func (k *Kernel) SkipIdle(limit int64) int64 {
	if k.stepping {
		panic("sim: SkipIdle during Step")
	}
	if k.alwaysActive || !k.Idle() {
		return 0
	}
	target := limit
	if nw := k.NextWake(); nw < target {
		target = nw
	}
	n := target - k.cycle
	if n <= 0 {
		return 0
	}
	if k.epilogue == nil && len(k.observers) == 0 {
		k.cycle = target
		return n
	}
	for k.cycle < target {
		if k.epilogue != nil {
			k.epilogue(k.cycle)
		}
		for _, o := range k.observers {
			o(k.cycle, 0)
		}
		k.cycle++
	}
	return n
}

// RunUntil steps the simulation until done returns true or the cycle limit
// is reached, and reports whether done was satisfied.
//
// done must be a read-only function of committed component state (it must
// not mutate the simulation, and must not depend on the cycle counter):
// once the kernel is idle nothing a step evaluates before the next timed
// wake can change done's verdict, so RunUntil jumps the clock to the next
// wake (or the limit) in bulk instead of stepping idle cycles one by one.
func (k *Kernel) RunUntil(done func() bool, limit int64) bool {
	for k.cycle < limit {
		if done() {
			return true
		}
		if k.Idle() && !k.alwaysActive {
			if k.SkipIdle(limit) == 0 && k.Idle() {
				// A wake is due this very cycle: step to evaluate it.
				k.Step()
			}
			continue
		}
		k.Step()
	}
	return done()
}

// SetOracle arms the serial kernel's horizon-contract checker. hash must
// return a digest of component h's externally visible state (any collision-
// resistant fold of its committed fields). While armed, every step evaluates
// every component eagerly — the always-evaluate reference semantics — but
// keeps the notional active set's bookkeeping. A component the fast path
// would have skipped (parked quiet or beyond its horizon) is hashed before
// its Compute and after its Commit: the contract says evaluating it must be
// a state no-op, so a differing hash means it under-reported its horizon or
// went quiet with latent work — the silent-divergence bug class — and the
// kernel panics naming the component. Debug mode: serial kernels only, and
// the eager evaluation costs the full per-cycle walk. Pass nil to disarm.
func (k *Kernel) SetOracle(hash func(Handle) uint64) {
	if k.stepping {
		panic("sim: SetOracle during Step")
	}
	if k.sh != nil {
		panic("sim: SetOracle on a sharded kernel (the oracle is serial-only)")
	}
	k.oracle = hash
	if hash != nil && k.oracleH == nil {
		k.oracleH = make([]uint64, len(k.components))
	}
}

// stepOracle is the contract-checking step (see SetOracle): eager evaluation
// of every component with hash checks around the notionally-parked ones.
// The wheel pop already ran in stepSerial.
func (k *Kernel) stepOracle() {
	cycle := k.cycle
	// Hash every notionally-parked component before the cycle touches it.
	// The flags only rise mid-step (bookkeeping that clears them happens at
	// each component's own commit visit, below), so a component whose flag
	// is still clear at its commit visit was hashed here.
	for i := range k.components {
		if k.active[i] == 0 {
			k.oracleH[i] = k.oracle(Handle(i))
		}
	}
	for _, c := range k.components {
		c.Compute(cycle)
	}
	for i, c := range k.components {
		if k.active[i] != 0 {
			k.commitOne(i, cycle, true)
			continue
		}
		c.Commit(cycle)
		if got := k.oracle(Handle(i)); got != k.oracleH[i] {
			panic(oracleViolation{comp: i, cycle: cycle})
		}
	}
}
