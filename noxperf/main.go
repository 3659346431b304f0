// Command noxperf is the repository benchmark. It runs one workload as a
// closed loop with one job in flight — each job is one public harness or
// network call sequence, the same one the matching cmd tool makes with its
// defaults — checks every job's simulated results against pinned digests,
// and prints every metric by name and unit, then one JSON result line.
//
// Usage (from the repository root, through noxperf/run.sh, which builds it):
//
//	bash noxperf/run.sh --workload fig8-ladder --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes the spans as a
// Chrome trace. See NOTES.md for the workloads, metrics and measured noise.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/network"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/router"
	"repro/internal/telemetry"
)

// outDir holds everything a run writes: traces and flight-recorder dumps.
// It is inside the checkout and ignored by git.
const outDir = ".bench_build/noxperf-out"

// A run repeats its set-up to report the median: enough times to spend
// about setupBudget, within [minSetupReps, maxSetupReps].
const (
	setupBudget  = 3 * time.Second
	minSetupReps = 5
	maxSetupReps = 201
)

//go:embed digests.txt
var pinnedDigests string

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	render   string
	pinOut   string
	traceOut string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("noxperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: fig8-ladder, fig10-apps or degrade-8x8")
	fs.Uint64Var(&o.seed, "seed", 0, "input seed; 0 runs every tool at its default seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds on the reference host; sets the number of passes")
	traceN := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	scale := fs.String("scale", "full", "full, or tiny for the smoke test")
	fs.StringVar(&o.render, "render", "", "write the first pass's results in the matching tool's output format to this file")
	fs.StringVar(&o.pinOut, "pin-out", "", "write every job's digest to this file in digests.txt format")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced run's Chrome trace file (default "+outDir+"/<workload>-seed<n>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *traceN != 0 && *traceN != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *traceN == 1
	switch *scale {
	case "full":
	case "tiny":
		o.tiny = true
	default:
		return o, fmt.Errorf("--scale must be full or tiny")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", o.workload, o.seed))
	}
	return o, nil
}

// outcome is what one job returns: its result (the digest input and the
// renderer's input), its failure if any, the work it did and its modelled
// figures.
type outcome struct {
	result any
	err    error
	fail   string // non-empty: the job failed (undrained, violations, unaccounted packets)
	skip   bool   // an infeasible ladder point: no work, ends the series

	topo                noc.Topology
	classes             int   // class networks stepped together
	cycles              int64 // simulated cycles per class network
	injected, delivered int64 // packets
	fromSampler         bool  // cycles and packet counts come from the sampler
	counters            power.Counters

	arch      router.Arch
	pairKey   string  // jobs with equal keys differ only in architecture
	latNs     float64 // mean packet latency, NaN when not comparable
	mbps      float64 // accepted bandwidth, MB/s/node
	saturated bool

	lay cellLayers // traced degrade cells only
}

// rc returns the job's router-cycles.
func (o outcome) rc() float64 {
	return float64(o.topo.Nodes()) * float64(o.classes) * float64(o.cycles)
}

// jobEnv is what a job gets from the runner: the process's telemetry
// sampler, the flight-recorder factory (nil when disarmed) and the tracer
// (nil when untraced).
type jobEnv struct {
	sampler     *telemetry.Sampler
	newRecorder func(label string) *telemetry.Recorder
	tr          *tracer
}

// recorder returns a flight recorder for the run labelled label, or nil when
// the recorder is disarmed.
func (e jobEnv) recorder(label string) *telemetry.Recorder {
	if e.newRecorder == nil {
		return nil
	}
	return e.newRecorder(label)
}

// jobRecord is one finished job.
type jobRecord struct {
	name    string
	wall    time.Duration
	cpu     time.Duration // process CPU time during the job
	out     outcome
	failed  string
	allocs  uint64 // traced run: heap allocations during the job
	bytes   uint64 // traced run: heap bytes allocated during the job
	digest  string
	rerunFn func(env jobEnv) outcome
}

// runner runs jobs one at a time and keeps their records.
type runner struct {
	wl      string // workload key in digests.txt
	pinSeed uint64 // seed key in digests.txt
	sampler *telemetry.Sampler
	tr      *tracer
	pins    map[string]string
	seen    map[string]string
	recs    []jobRecord
	calib   []time.Duration // calibration samples: one before the first job, one after each
	pinned  int
	wrong   []string
}

// newRecorder is the tools' default flight-recorder factory, with dumps
// kept inside the checkout.
func newRecorder(label string) *telemetry.Recorder {
	return telemetry.NewRecorder(telemetry.RecorderConfig{Dir: filepath.Join(outDir, "flight"), Label: label})
}

// job runs fn once, timing only the call, and records the outcome, then
// takes a calibration sample. A panic or error fails the job, as does a
// digest that differs from the pinned one or from the same job's earlier
// result in this run.
func (r *runner) job(name string, fn func(env jobEnv) outcome) outcome {
	var recs []*telemetry.Recorder
	env := jobEnv{sampler: r.sampler, tr: r.tr, newRecorder: func(label string) *telemetry.Recorder {
		rec := newRecorder(label)
		recs = append(recs, rec)
		return rec
	}}
	var ms0 runtime.MemStats
	if r.tr != nil {
		r.tr.job = len(r.recs)
		runtime.ReadMemStats(&ms0)
	}
	before := r.sampler.Snapshot()
	depth := 0
	if r.tr != nil {
		depth = len(r.tr.open)
	}
	sp := r.tr.begin("bench", "job "+name)
	cpu0 := cpuTime()
	t0 := time.Now()
	out := r.call(fn, env)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	if r.tr != nil {
		r.tr.open = r.tr.open[:depth+1] // a panic leaves inner spans open
		r.tr.end(sp)
	}
	if out.skip {
		return out
	}
	after := r.sampler.Snapshot()
	if out.fromSampler {
		out.cycles = after.CyclesTotal - before.CyclesTotal
		out.injected = after.InjectedPackets - before.InjectedPackets
		out.delivered = after.DeliveredPackets - before.DeliveredPackets
		if !out.saturated && out.err == nil && out.fail == "" && out.delivered != out.injected {
			out.fail = fmt.Sprintf("%d packets unaccounted", out.injected-out.delivered)
		}
	}
	rec := jobRecord{name: name, wall: wall, cpu: cpu, rerunFn: fn}
	if r.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		rec.allocs, rec.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	}
	for _, fr := range recs {
		if fr.Triggered() && out.fail == "" {
			out.fail = "flight recorder triggered (drain deadlock or violation)"
		}
	}
	switch {
	case out.err != nil:
		rec.failed = "error: " + firstLine(out.err.Error())
	case out.fail != "":
		rec.failed = out.fail
	}
	rec.digest = digest(out)
	key := r.wl + " " + strconv.FormatUint(r.pinSeed, 10) + " " + name
	if want, ok := r.pins[key]; ok {
		r.pinned++
		if want != rec.digest {
			r.wrong = append(r.wrong, fmt.Sprintf("%s: digest %s, pinned %s", name, rec.digest, want))
			rec.failed = "digest differs from pinned " + want
		}
	}
	if prev, ok := r.seen[name]; ok && prev != rec.digest {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: digest %s, earlier in this run %s", name, rec.digest, prev))
		rec.failed = "digest differs from an earlier pass"
	}
	r.seen[name] = rec.digest
	rec.out = out
	r.recs = append(r.recs, rec)
	r.calib = append(r.calib, calibSample())
	return out
}

// call runs fn, turning a panic into an error.
func (r *runner) call(fn func(env jobEnv) outcome, env jobEnv) (out outcome) {
	defer func() {
		if p := recover(); p != nil {
			out = outcome{err: fmt.Errorf("panic: %v", p)}
		}
	}()
	return fn(env)
}

// digest hashes a job's full result (every field of RunResult, AppResult or
// the degrade cell), or its error.
func digest(o outcome) string {
	h := fnv.New64a()
	if o.err != nil {
		fmt.Fprintf(h, "error: %v", o.err)
	} else {
		fmt.Fprintf(h, "%+v", o.result)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func loadPins() map[string]string {
	pins := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(pinnedDigests))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && !strings.HasPrefix(f[0], "#") {
			pins[f[0]+" "+f[1]+" "+f[2]] = f[3]
		}
	}
	return pins
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "noxperf:", err)
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "noxperf:", err)
		return 2
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "noxperf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "noxperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func measure(w workload, o options, stdout io.Writer) (result, error) {
	wl := w.name
	if o.tiny {
		wl += "@tiny"
	}
	ws := &wstate{seed: o.seed, tiny: o.tiny}
	r := &runner{wl: wl, pinSeed: o.seed, sampler: telemetry.NewSampler(time.Second), pins: loadPins(), seen: map[string]string{}}
	if w.fixedInputs {
		r.pinSeed = 0
	}
	if o.trace {
		r.tr = newTracer()
	}

	// Set-up: generate the inputs and build the route tables, several times
	// so the median is steady. The first repetition fills the shared route
	// table memo the jobs use and is the one traced.
	setupRoot := r.tr.begin("bench", "setup")
	t0 := time.Now()
	first := w.setup(ws, r.tr, true)
	setups := []float64{time.Since(t0).Seconds()}
	r.tr.end(setupRoot)
	reps := int(math.Ceil(setupBudget.Seconds() / setups[0]))
	reps = min(max(reps, minSetupReps), maxSetupReps)
	for len(setups) < reps {
		// Each repetition starts as the first did: no inputs, and a heap
		// without the previous repetition's garbage (which would also set
		// peak_rss_mb).
		*ws = wstate{seed: ws.seed, tiny: ws.tiny}
		runtime.GC()
		t0 := time.Now()
		w.setup(ws, nil, false)
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	passes := 1
	if !o.tiny && !o.trace {
		passes = int(math.Max(1, math.Round(o.seconds/w.passSeconds)))
	}
	fmt.Fprintf(stdout, "noxperf: workload=%s seed=%d scale=%s trace=%v passes=%d setup-reps=%d gomaxprocs=%d\n",
		w.name, o.seed, map[bool]string{false: "full", true: "tiny"}[o.tiny], o.trace, passes, len(setups), runtime.GOMAXPROCS(0))

	calibSample() // first touch of the kernel's buffer
	r.calib = append(r.calib, calibSample())
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var firstPass []jobRecord
	for p := 0; p < passes; p++ {
		start := len(r.recs)
		w.pass(ws, r)
		if p == 0 {
			firstPass = r.recs[start:]
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	if o.render != "" {
		if err := os.WriteFile(o.render, []byte(w.render(ws, firstPass)), 0o644); err != nil {
			return result{}, err
		}
	}
	if o.pinOut != "" {
		var b strings.Builder
		for _, rec := range firstPass {
			fmt.Fprintf(&b, "%s %d %s %s\n", wl, r.pinSeed, rec.name, rec.digest)
		}
		if err := os.WriteFile(o.pinOut, []byte(b.String()), 0o644); err != nil {
			return result{}, err
		}
	}

	res := result{Correct: len(r.wrong) == 0, Attempted: len(r.recs), Metrics: map[string]metric{}}
	for _, rec := range r.recs {
		if rec.failed != "" {
			res.Failed++
		}
	}
	for _, rec := range firstPass {
		if rec.failed != "" {
			fmt.Fprintf(stdout, "failed job %s: %s\n", rec.name, rec.failed)
		}
	}
	for i, msg := range r.wrong {
		if i == 10 {
			fmt.Fprintf(stdout, "WRONG OUTPUT ... and %d more\n", len(r.wrong)-i)
			break
		}
		fmt.Fprintf(stdout, "WRONG OUTPUT %s\n", msg)
	}
	fmt.Fprintf(stdout, "jobs=%d failed=%d fail_frac=%.6g digests pinned=%d checked-ok=%v\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), r.pinned, res.Correct)
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no jobs ran")
	}

	if !o.trace {
		endToEnd(r.recs, hostScale(r.calib, len(r.recs)), setups, res.Metrics, stdout)
	} else {
		if err := perLayer(ws, r, first, gc0, gc1, res.Metrics, stdout); err != nil {
			return result{}, err
		}
		path := o.traceOut
		if err := r.tr.writeChrome(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(r.tr.spans), path)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "metric %-28s %-16.8g %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// endToEnd computes the end-to-end metrics over every job of the run. Host
// times are scaled to the reference host's speed: each job's by its own
// scale, set-up's by the median scale.
func endToEnd(recs []jobRecord, scale []float64, setups []float64, m map[string]metric, stdout io.Writer) {
	var rc, wall, cpu, rawWall float64
	var injected, delivered int64
	walls, rawWalls := make([]float64, len(recs)), make([]float64, len(recs))
	for i, rec := range recs {
		rc += rec.out.rc()
		walls[i] = rec.wall.Seconds() / scale[i]
		rawWalls[i] = rec.wall.Seconds()
		wall += walls[i]
		rawWall += rawWalls[i]
		cpu += float64(rec.cpu.Nanoseconds()) / scale[i]
		injected += rec.out.injected
		delivered += rec.out.delivered
	}
	sort.Float64s(walls)
	host := median(scale)
	m["setup_s"] = metric{median(setups) / host, "s"}
	m["sim_rcps"] = metric{rc / wall, "router-cycles/s"}
	m["job_s.p50"] = metric{median(walls), "s"}
	tail, pct := tailPercentile(walls)
	m["job_s.tail"] = metric{tail, "s"}
	fmt.Fprintf(stdout, "job_s.tail is p%.2f of n=%d jobs (the highest percentile with at least 10 jobs beyond it; the maximum below 21 jobs)\n", pct, len(walls))
	fmt.Fprintf(stdout, "host ran %.4gx the reference host's time (median calibration scale, range %.4g-%.4g); unscaled: setup_s %.6g sim_rcps %.6g job_s.p50 %.6g\n",
		host, slices.Min(scale), slices.Max(scale), median(setups), rc/rawWall, median(rawWalls))
	m["cpu_ns_per_rc"] = metric{cpu / rc, "ns"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["nox_sat_mbps"] = metric{noxBest(recs), "MB/s/node"}
	m["nox_lat_vs_sa"] = metric{noxVsSA(recs), "ratio"}
	m["delivered_frac"] = metric{float64(delivered) / float64(injected), "ratio"}
}

// tailPercentile returns the highest sample with at least ten samples above
// it, and its percentile. Below 21 samples that percentile would not lie
// above the median, so the maximum is returned instead.
func tailPercentile(sorted []float64) (float64, float64) {
	n := len(sorted)
	k := n - 11
	if n < 21 {
		k = n - 1
	}
	return sorted[k], 100 * float64(k+1) / float64(n)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// noxBest returns the highest accepted bandwidth of any NoX job: on the
// Figure 8 ladder that is harness.SaturationMBps for NoX.
func noxBest(recs []jobRecord) float64 {
	best := 0.0
	for _, rec := range recs {
		if rec.out.arch == router.NoX && rec.out.mbps > best {
			best = rec.out.mbps
		}
	}
	return best
}

// noxVsSA returns the geometric mean, over job pairs that differ only in
// architecture, of NoX's mean latency over Spec-Accurate's, skipping pairs
// where either side saturated or delivered nothing.
func noxVsSA(recs []jobRecord) float64 {
	nox, sa := map[string]float64{}, map[string]float64{}
	for _, rec := range recs {
		switch rec.out.arch {
		case router.NoX:
			nox[rec.out.pairKey] = rec.out.latNs
		case router.SpecAccurate:
			sa[rec.out.pairKey] = rec.out.latNs
		}
	}
	var logSum float64
	n := 0
	for k, a := range nox {
		b, ok := sa[k]
		if !ok || math.IsNaN(a) || math.IsNaN(b) || a <= 0 || b <= 0 {
			continue
		}
		logSum += math.Log(a / b)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// perLayer computes the traced run's per-layer metrics. The pass has run
// with spans; a fixed subset of jobs is then repeated untraced, with the
// flight recorder armed and disarmed, to price tracing and the recorder.
func perLayer(ws *wstate, r *runner, first setupInfo, gc0, gc1 runtime.MemStats, m map[string]metric, stdout io.Writer) error {
	recs := r.recs
	var rc, wall, allocs, bytes float64
	var cycles, injected, delivered int64
	var ctr power.Counters
	var lay cellLayers
	var builds, components int
	var activeCycles, trafficCycles float64
	var cells []dcell
	for _, rec := range recs {
		o := rec.out
		rc += o.rc()
		wall += rec.wall.Seconds()
		allocs += float64(rec.allocs)
		bytes += float64(rec.bytes)
		cycles += o.cycles * int64(o.classes)
		injected += o.injected
		delivered += o.delivered
		ctr.Add(o.counters)
		if c, ok := o.result.(dcell); ok {
			cells = append(cells, c)
			builds++
			lay.build += o.lay.build
			lay.buildAllocs += o.lay.buildAllocs
			lay.inject += o.lay.inject
			lay.step += o.lay.step
			lay.epochStep += o.lay.epochStep
			lay.drain += o.lay.drain
			lay.invariants += o.lay.invariants
			lay.activeSum += o.lay.activeSum
			lay.shards = o.lay.shards
			components = o.lay.components
			activeCycles += float64(o.lay.components) * float64(o.cycles)
			trafficCycles += float64(ws.dp.cycles) * float64(o.topo.Nodes())
		}
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	set("harness.ns_per_rc", frac(wall*1e9, rc), "ns")
	set("harness.allocs_per_rc", frac(allocs, rc), "count")
	set("harness.bytes_per_rc", frac(bytes, rc), "B")
	set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
	set("runtime.gc_pause_s", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e9, "s")
	set("trace.generate_s", first.generate.Seconds(), "s")
	set("trace.packets", float64(first.packets), "count")
	set("routing.table_build_s", first.tableBuild.Seconds(), "s")

	var notMeasured []string
	if cells == nil {
		// The harness builds its networks inside RunSynthetic/RunApp, out of
		// the benchmark's reach: build the first job's network once, as the
		// job would, to price construction and read the shard count the
		// default configuration selects.
		probe := probeBuild(recs[0].out)
		builds, lay.build, lay.buildAllocs, lay.shards = 1, probe.build, probe.buildAllocs, probe.shards
		notMeasured = append(notMeasured, "network.inject_s", "network.step_s", "network.step_ns_per_rc",
			"network.epoch_step_s", "network.drain_s", "network.invariants_s", "sim.active_frac")
	}
	set("network.build_s", frac(lay.build.Seconds(), float64(builds)), "s")
	set("network.build_allocs", frac(float64(lay.buildAllocs), float64(builds)), "count")
	set("network.inject_s", lay.inject.Seconds(), "s")
	set("network.step_s", (lay.step + lay.epochStep).Seconds(), "s")
	set("network.step_ns_per_rc", frac(float64((lay.step+lay.epochStep).Nanoseconds()), trafficCycles), "ns")
	set("network.epoch_step_s", lay.epochStep.Seconds(), "s")
	set("network.drain_s", lay.drain.Seconds(), "s")
	set("network.invariants_s", lay.invariants.Seconds(), "s")

	var c dcell
	deadLinks := 0
	for _, cl := range cells {
		c.Retransmits += cl.Retransmits
		c.Acked += cl.Acked
		c.Exhausted += cl.Exhausted
		c.Dupes += cl.Dupes
		c.Epochs += cl.Epochs
		c.Undeliverable += cl.Undeliverable
		c.Partitioned += cl.Partitioned
		c.Violations += cl.Violations
		for k, v := range cl.Kinds {
			c.Kinds[k] += v
		}
		deadLinks += cl.Failed
	}
	set("network.retransmits", float64(c.Retransmits), "count")
	set("network.rtx_acked", float64(c.Acked), "count")
	set("network.rtx_exhausted", float64(c.Exhausted), "count")
	set("network.rtx_useful_frac", frac(float64(c.Acked), float64(c.Retransmits)), "ratio")
	set("network.dup_suppressed", float64(c.Dupes), "count")
	set("network.epochs", float64(c.Epochs), "count")
	set("network.undeliverable", float64(c.Undeliverable), "count")
	set("network.partitioned_pairs", float64(c.Partitioned), "count")
	set("network.injected", float64(injected), "count")
	set("network.delivered", float64(delivered), "count")
	set("check.violations", float64(c.Violations), "count")
	for k, v := range c.Kinds {
		set("check.violations."+check.Kind(k).String(), float64(v), "count")
	}
	set("fault.dead_links", float64(deadLinks), "count")

	set("sim.cycles", float64(cycles), "count")
	set("sim.router_cycles", rc, "count")
	set("sim.active_frac", frac(float64(lay.activeSum), activeCycles), "ratio")
	set("sim.shards", float64(lay.shards), "count")

	set("router.xbar_per_rc", frac(float64(ctr.Xbar), rc), "ratio")
	set("router.ns_per_xbar", frac(wall*1e9, float64(ctr.Xbar)), "ns")
	set("router.productive_frac", frac(float64(ctr.OutputActive), float64(ctr.OutputActive+ctr.WastedCycles)), "ratio")
	set("noc.link_useful_frac", frac(float64(ctr.LinkFlit), float64(ctr.LinkFlit+ctr.LinkInvalid)), "ratio")
	set("router.collisions", float64(ctr.Collisions), "count")
	set("router.wasted_cycles", float64(ctr.WastedCycles), "count")
	set("arbiter.decisions", float64(ctr.Arb), "count")
	set("core.decodes", float64(ctr.Decode), "count")
	set("core.encoded_flits", float64(ctr.EncodedFlits), "count")
	set("core.aborts", float64(ctr.Aborts), "count")
	set("buffer.writes", float64(ctr.BufWrite), "count")
	set("buffer.reads", float64(ctr.BufRead), "count")
	set("noc.link_flits", float64(ctr.LinkFlit), "count")
	set("noc.link_invalid", float64(ctr.LinkInvalid), "count")

	for layer, d := range r.tr.selfTimes() {
		set(layer+".self_s", d.Seconds(), "s")
	}
	for _, l := range layers {
		if _, ok := m[l+".self_s"]; !ok {
			set(l+".self_s", 0, "s")
		}
	}

	recFrac, traceFrac, err := overheads(r, cells != nil)
	if err != nil {
		return err
	}
	set("telemetry.recorder_frac", recFrac, "ratio")
	set("telemetry.flight_dumps", float64(telemetry.FlightDumps()), "count")
	set("bench.trace_overhead_frac", traceFrac, "ratio")

	for _, cl := range cells {
		fmt.Fprintf(stdout, "cell %s/links=%d: fault.dead_links=%d epochs=%d violations=%d\n", cl.Arch, cl.Failed, cl.Failed, cl.Epochs, cl.Violations)
	}
	if components > 0 {
		fmt.Fprintf(stdout, "sim.active_frac is over %d components per network\n", components)
	}
	if cells == nil {
		notMeasured = append(notMeasured, "check.violations (no checker is armed by the tools)", "fault.dead_links (no faults)")
	} else {
		notMeasured = append(notMeasured, "telemetry.recorder_frac (noxfault degrade cells arm no recorder)")
	}
	fmt.Fprintf(stdout, "per-layer metrics reported as 0 because this workload does not reach them from outside: %s\n", strings.Join(notMeasured, "; "))
	fmt.Fprintf(stdout, "router/core/arbiter/buffer/noc counts come from the results' power.Counters (measurement window only on fig8-ladder)\n")
	return nil
}

// overheads repeats two fixed jobs of the traced pass three times each —
// traced, and untraced with the flight recorder armed and disarmed, the
// order rotating between repetitions — and returns the recorder's and the
// tracing's share of job time.
func overheads(r *runner, degrade bool) (recorderFrac, traceFrac float64, err error) {
	n := len(r.recs)
	modes := []string{"traced", "armed", "disarmed"}
	total := map[string]time.Duration{}
	for rep := 0; rep < len(modes); rep++ {
		for _, rec := range []jobRecord{r.recs[n/3], r.recs[2*n/3]} {
			for k := range modes {
				mode := modes[(rep+k)%len(modes)]
				env := jobEnv{sampler: r.sampler}
				if mode != "disarmed" {
					env.newRecorder = newRecorder
				}
				if mode == "traced" {
					env.tr = newTracer()
				}
				runtime.GC() // no run pays for the previous one's garbage
				t0 := time.Now()
				out := r.call(rec.rerunFn, env)
				total[mode] += time.Since(t0)
				if out.err != nil {
					return 0, 0, fmt.Errorf("repeating job %s: %w", rec.name, out.err)
				}
			}
		}
	}
	traceFrac = float64(total["traced"]-total["armed"]) / float64(total["traced"])
	if !degrade {
		recorderFrac = float64(total["armed"]-total["disarmed"]) / float64(total["armed"])
	}
	return recorderFrac, traceFrac, nil
}

// probeBuild builds the network a harness job builds (same topology and
// architecture, default shards) once, timing it and counting allocations.
func probeBuild(o outcome) cellLayers {
	var lay cellLayers
	ms0 := mallocs()
	t0 := time.Now()
	net, err := network.Build(network.Config{Topo: o.topo, Arch: o.arch})
	lay.build = time.Since(t0)
	lay.buildAllocs = mallocs() - ms0
	if err == nil {
		lay.shards = net.Shards()
		net.Close()
	}
	return lay
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
