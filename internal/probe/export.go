package probe

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Exporters for the recorded event stream and metrics. All exporters write
// deterministically: two probes holding identical streams render
// byte-identical output, the property the parallel-determinism tests pin.

// portName names a router port: the four mesh directions then the local
// (core) ports.
func portName(port, ports int) string {
	switch port {
	case 0:
		return "N"
	case 1:
		return "E"
	case 2:
		return "S"
	case 3:
		return "W"
	}
	if port < 0 {
		return "-"
	}
	if ports <= 5 {
		return "L"
	}
	return fmt.Sprintf("L%d", port-4)
}

// errRingOnly is returned by the per-router metrics exporters on a probe
// built by NewRing.
var errRingOnly = errors.New("probe: ring-only probe keeps no per-router metrics")

// niPid offsets core IDs into a distinct Chrome-trace process range so NI
// tracks do not collide with router tracks.
const niPid = 100000

// chromeEvent is one Chrome trace-event JSON object. Perfetto and
// chrome://tracing both load the array form.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the retained events as Chrome trace-event JSON:
// one process per router (and per network interface), one thread (track)
// per router port. Timestamps are in microseconds as the format requires,
// scaled by Config.PeriodNs when set (1 cycle = PeriodNs ns) or 1 cycle =
// 1 us otherwise, so relative timing is exact either way.
func (p *Probe) WriteChromeTrace(w io.Writer) error {
	header := fmt.Sprintf("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"periodNs\":%g,\"events\":%d,\"dropped\":%d},\"traceEvents\":[\n",
		p.cfg.PeriodNs, p.EventCount(), p.Dropped())
	return p.writeChromeEvents(w, header, p.Events())
}

// WriteChromeTraceWindow renders only the events with cycle in [start, end]
// — the flight recorder's failure-window dump. The header carries the
// window bounds and the in-window event count instead of ring totals, so
// two probes that observed the same event stream over the window render
// byte-identical output regardless of their ring sizes or wrap history.
func (p *Probe) WriteChromeTraceWindow(w io.Writer, start, end int64) error {
	evs := p.EventsWindow(start, end)
	header := fmt.Sprintf("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"periodNs\":%g,\"windowStart\":%d,\"windowEnd\":%d,\"events\":%d},\"traceEvents\":[\n",
		p.cfg.PeriodNs, start, end, len(evs))
	return p.writeChromeEvents(w, header, evs)
}

// writeChromeEvents is the shared Chrome-trace body: header, track
// metadata, then the given events.
func (p *Probe) writeChromeEvents(w io.Writer, header string, events []Event) error {
	bw := bufio.NewWriter(w)
	scale := 1.0
	if p.cfg.PeriodNs > 0 {
		scale = p.cfg.PeriodNs * 1e-3 // ns -> us
	}
	if _, err := bw.WriteString(header); err != nil {
		return err
	}

	first := true
	put := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata: name the router and NI tracks, from the attached geometry
	// (a ring-only probe keeps no per-router metrics to range over).
	for node := 0; node < p.width*p.height; node++ {
		x, y := node%max(p.width, 1), node/max(p.width, 1)
		if err := put(chromeEvent{Name: "process_name", Phase: "M", Pid: node,
			Args: map[string]any{"name": fmt.Sprintf("router %d (%d,%d)", node, x, y)}}); err != nil {
			return err
		}
		for port := 0; port < p.ports; port++ {
			if err := put(chromeEvent{Name: "thread_name", Phase: "M", Pid: node, Tid: port,
				Args: map[string]any{"name": "port " + portName(port, p.ports)}}); err != nil {
				return err
			}
		}
	}
	for core := 0; core < p.cores; core++ {
		if err := put(chromeEvent{Name: "process_name", Phase: "M", Pid: niPid + core,
			Args: map[string]any{"name": fmt.Sprintf("NI %d", core)}}); err != nil {
			return err
		}
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Ts:   float64(ev.Cycle) * scale,
			Pid:  int(ev.Node),
			Tid:  int(ev.Port),
			Args: map[string]any{"cycle": ev.Cycle},
		}
		if ev.Port < 0 {
			// NI-side event (or injection channel): Node is a core ID.
			ce.Pid, ce.Tid = niPid+int(ev.Node), 0
		}
		switch ev.Kind {
		case EvInject, EvDeliver:
			ce.Phase, ce.Scope = "i", "p"
			ce.Args["pkt"] = ev.Arg
			if ev.Kind == EvInject {
				ce.Args["flits"] = ev.Aux
			} else {
				ce.Args["latency_cycles"] = ev.Aux
			}
		case EvTraverse, EvLink:
			ce.Phase, ce.Dur = "X", scale
			if ev.Aux < 0 {
				ce.Name += " enc"
				ce.Args["raw"] = fmt.Sprintf("%#x", ev.Arg)
			} else {
				ce.Args["pkt"] = ev.Arg
				ce.Args["seq"] = ev.Aux
			}
		case EvCollision:
			ce.Phase, ce.Scope = "i", "t"
			ce.Args["fanin"] = ev.Aux
			if ev.Arg != 0 {
				ce.Args["raw"] = fmt.Sprintf("%#x", ev.Arg)
			}
		case EvAbort:
			ce.Phase, ce.Scope = "i", "t"
			ce.Args["winner"] = ev.Aux
		case EvMode:
			ce.Phase, ce.Scope = "i", "t"
			ce.Name = fmt.Sprintf("mode %s->%s", modeName(int(ev.Aux)), modeName(int(ev.Arg)))
		case EvBufWrite:
			ce.Phase, ce.Scope = "i", "t"
			if ev.Aux < 0 {
				ce.Args["raw"] = fmt.Sprintf("%#x", ev.Arg)
			} else {
				ce.Args["pkt"] = ev.Arg
				ce.Args["seq"] = ev.Aux
			}
		case EvBufRead:
			ce.Phase, ce.Scope = "i", "t"
			ce.Args["reads"] = ev.Aux
		case EvDecode:
			ce.Phase, ce.Scope = "i", "t"
			ce.Args["pkt"] = ev.Arg
		case EvCreditStall:
			ce.Phase, ce.Scope = "i", "t"
		default:
			ce.Phase, ce.Scope = "i", "t"
		}
		if err := put(ce); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func modeName(m int) string {
	if m == 1 {
		return "S"
	}
	return "R"
}

// WriteWaveform renders the retained events as a compact chronological
// textual waveform, one event per line.
func (p *Probe) WriteWaveform(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# waveform: %d events (%d dropped by ring wrap)\n# cycle    where        event      detail\n",
		p.EventCount(), p.Dropped()); err != nil {
		return err
	}
	for _, ev := range p.Events() {
		var where string
		if ev.Port < 0 {
			where = fmt.Sprintf("ni%d", ev.Node)
		} else {
			where = fmt.Sprintf("r%d.%s", ev.Node, portName(int(ev.Port), p.ports))
		}
		var detail string
		switch ev.Kind {
		case EvInject:
			detail = fmt.Sprintf("pkt%d len=%d", ev.Arg, ev.Aux)
		case EvDeliver:
			detail = fmt.Sprintf("pkt%d latency=%d", ev.Arg, ev.Aux)
		case EvTraverse, EvLink, EvBufWrite:
			if ev.Aux < 0 {
				detail = fmt.Sprintf("enc raw=%#x", ev.Arg)
			} else {
				detail = fmt.Sprintf("pkt%d.%d", ev.Arg, ev.Aux)
			}
		case EvBufRead:
			detail = fmt.Sprintf("reads=%d", ev.Aux)
		case EvCollision:
			detail = fmt.Sprintf("fanin=%d", ev.Aux)
			if ev.Arg != 0 {
				detail += fmt.Sprintf(" raw=%#x", ev.Arg)
			}
		case EvDecode:
			detail = fmt.Sprintf("pkt%d", ev.Arg)
		case EvAbort:
			detail = fmt.Sprintf("winner=in%d", ev.Aux)
		case EvMode:
			detail = fmt.Sprintf("%s->%s", modeName(int(ev.Aux)), modeName(int(ev.Arg)))
		}
		if _, err := fmt.Fprintf(bw, "%8d   %-12s %-10s %s\n", ev.Cycle, where, ev.Kind, detail); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRouterCSV renders the per-router metrics registry as CSV, one row
// per router, with per-port link flit counts in trailing columns.
func (p *Probe) WriteRouterCSV(w io.Writer) error {
	if p.ringOnly {
		return errRingOnly
	}
	bw := bufio.NewWriter(w)
	header := "node,x,y,traversals,collisions,aborts,decodes,buf_writes,buf_reads,credit_stall_cycles,recovery_cycles,scheduled_cycles,mode_transitions,mean_occupancy"
	for port := 0; port < p.ports; port++ {
		header += ",link_flits_" + portName(port, p.ports)
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for i := range p.routers {
		m := &p.routers[i]
		x, y := m.Node%max(p.width, 1), m.Node/max(p.width, 1)
		occ := 0.0
		if n := m.SampledCycles(); n > 0 {
			occ = float64(m.BufferedTotal()) / float64(n)
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f",
			m.Node, x, y, m.Traversals, m.Collisions, m.Aborts, m.Decodes,
			m.BufWrites, m.BufReads, m.CreditStallCycles,
			m.RecoveryCycles, m.ScheduledCycles, m.ModeTransitions, occ); err != nil {
			return err
		}
		for _, n := range m.LinkFlits {
			if _, err := fmt.Fprintf(bw, ",%d", n); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteHeatmapCSV renders the per-node flit-count mesh heatmap: a
// Height-row, Width-column grid of switch traversal counts (row 0 = y 0).
func (p *Probe) WriteHeatmapCSV(w io.Writer) error {
	if p.ringOnly {
		return errRingOnly
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# flit traversals per router, %dx%d mesh (rows = y)\n", p.width, p.height); err != nil {
		return err
	}
	for y := 0; y < p.height; y++ {
		for x := 0; x < p.width; x++ {
			sep := ","
			if x == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(bw, "%s%d", sep, p.routers[y*p.width+x].Traversals); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteTimeSeriesCSV renders the periodic sampler's snapshots as CSV. Event
// columns are deltas over each sampling interval.
func (p *Probe) WriteTimeSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "cycle,injects,delivers,traversals,collisions,aborts,credit_stalls,buf_writes,active_components"); err != nil {
		return err
	}
	for _, s := range p.samples {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Cycle, s.Injects, s.Delivers, s.Traversals, s.Collisions,
			s.Aborts, s.CreditStalls, s.BufWrites, s.ActiveComponents); err != nil {
			return err
		}
	}
	return bw.Flush()
}
