package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/router"
)

// goodParams is the default noxfault configuration on a 4x4 mesh.
func goodParams() (params, args) {
	p := params{
		topo: noc.Topology{Width: 4, Height: 4}, bufferDepth: 4, shards: 1,
		cycles: 2000, load: 0.02, multi: 0.25, drain: 20000, watchdog: 4000,
		template: fault.Spec{Seed: 0xF001},
	}
	return p, args{campaigns: 8, retries: 4}
}

// TestValidateRejectsBadFlags pins that every malformed run-shaping flag is
// rejected by validate with an *argError naming it, and never by a panic
// inside a simulation.
func TestValidateRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		flag string
		edit func(*params, *args)
	}{
		{"negative kill in degrade mode", "kill", func(p *params, a *args) { a.degrade, a.kill = 3, -5 }},
		{"zero width", "width", func(p *params, a *args) { p.topo.Width = 0 }},
		{"zero height", "height", func(p *params, a *args) { p.topo.Height = 0 }},
		{"single node", "width", func(p *params, a *args) { p.topo = noc.Topology{Width: 1, Height: 1} }},
		{"load above one", "load", func(p *params, a *args) { p.load = 1.5 }},
		{"negative load", "load", func(p *params, a *args) { p.load = -0.1 }},
		{"multi above one", "multi", func(p *params, a *args) { p.multi = 2 }},
		{"negative multi", "multi", func(p *params, a *args) { p.multi = -1 }},
		{"negative retries", "retries", func(p *params, a *args) { a.retries = -1 }},
		{"negative degrade", "degrade", func(p *params, a *args) { a.degrade = -1 }},
		{"negative parallel", "parallel", func(p *params, a *args) { a.parallel = -2 }},
		{"kill at cycles", "kill", func(p *params, a *args) { a.degrade, a.kill = 2, p.cycles }},
		{"kill past cycles", "kill", func(p *params, a *args) { a.degrade, a.kill = 2, p.cycles+1 }},
		{"degrade past link count", "degrade", func(p *params, a *args) { a.degrade = 25 }},
		{"zero buffers", "buffers", func(p *params, a *args) { p.bufferDepth = 0 }},
		{"zero cycles", "cycles", func(p *params, a *args) { p.cycles = 0 }},
		{"zero campaigns", "campaigns", func(p *params, a *args) { a.campaigns = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, a := goodParams()
			tc.edit(&p, &a)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("validate panicked: %v", r)
					}
				}()
				_, err = validate(p, a)
			}()
			var ae *argError
			if !errors.As(err, &ae) {
				t.Fatalf("validate returned %v, want an *argError", err)
			}
			if ae.Flag != tc.flag {
				t.Errorf("rejected flag -%s, want -%s (%v)", ae.Flag, tc.flag, err)
			}
		})
	}

	p, a := goodParams()
	if _, err := validate(p, a); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	a.degrade, a.kill = 24, p.cycles-1
	if _, err := validate(p, a); err != nil {
		t.Errorf("full-mesh degrade sweep rejected: %v", err)
	}
}

// TestDegradeReportInvariant is the permanent-fault determinism check: the
// degradation sweep with a mid-run link kill and retransmission armed must
// render byte-identical reports serial and sharded, and at one and two
// pool workers, with every cell accounted (no UNDETECTED loss).
func TestDegradeReportInvariant(t *testing.T) {
	report := func(shards, parallel int) string {
		t.Helper()
		p, a := goodParams()
		p.shards = shards
		p.cycles, p.load, p.drain, p.watchdog = 800, 0.04, 10000, 3000
		a.degrade, a.kill, a.parallel = 2, 400, parallel
		pool, err := validate(p, a)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runDegradeMode(&buf, router.Archs, p, a.degrade, a.kill, a.rtimeout, a.retries, pool, "", ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := report(1, 1)
	if strings.Contains(serial, "UNDETECTED") {
		t.Fatalf("unaccounted loss under permanent faults:\n%s", serial)
	}
	if !strings.Contains(serial, "overall: cells=12 ok=12 undetected=0") {
		t.Fatalf("unexpected summary:\n%s", serial)
	}
	if got := report(4, 1); got != serial {
		t.Errorf("4-shard report diverged from serial\nsharded:\n%s\nserial:\n%s", got, serial)
	}
	if got := report(1, 2); got != serial {
		t.Errorf("2-worker report diverged from serial\nparallel:\n%s\nserial:\n%s", got, serial)
	}
}
