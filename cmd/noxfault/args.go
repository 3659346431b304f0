package main

import (
	"fmt"

	"repro/internal/exp"
)

// argError rejects one command-line value before any simulation runs.
type argError struct {
	Flag string // flag name without the leading dash
	msg  string
}

func (e *argError) Error() string { return e.msg }

func badArg(flag, format string, a ...any) *argError {
	return &argError{Flag: flag, msg: "-" + flag + " " + fmt.Sprintf(format, a...)}
}

// args are the flags validate checks besides the ones params carries.
type args struct {
	campaigns, parallel, degrade, retries int
	kill, rtimeout, warmstart             int64
}

// validate checks every run-shaping flag and builds the campaign pool. A
// bad value yields an *argError naming the flag; nothing has been simulated
// yet, so the tool exits without a partial report.
func validate(p params, a args) (*exp.Pool, error) {
	w, h := p.topo.Width, p.topo.Height
	switch {
	case w < 1:
		return nil, badArg("width", "must be >= 1 (got %d)", w)
	case h < 1:
		return nil, badArg("height", "must be >= 1 (got %d)", h)
	case w*h < 2:
		return nil, badArg("width", "and -height must give at least 2 nodes (got %dx%d): traffic needs a destination other than its source", w, h)
	case p.bufferDepth < 1:
		return nil, badArg("buffers", "must be >= 1 (got %d)", p.bufferDepth)
	case p.shards < 0:
		return nil, badArg("shards", "must be >= 0 (got %d)", p.shards)
	case p.cycles < 1:
		return nil, badArg("cycles", "must be >= 1 (got %d)", p.cycles)
	case !(p.load >= 0 && p.load <= 1):
		return nil, badArg("load", "must be a probability in [0, 1] (got %g)", p.load)
	case !(p.multi >= 0 && p.multi <= 1):
		return nil, badArg("multi", "must be a probability in [0, 1] (got %g)", p.multi)
	case p.drain < 0:
		return nil, badArg("drain", "must be >= 0 (got %d)", p.drain)
	case p.watchdog < 0:
		return nil, badArg("watchdog", "must be >= 0 (got %d)", p.watchdog)
	case a.campaigns < 1:
		return nil, badArg("campaigns", "must be positive (got %d)", a.campaigns)
	case a.retries < 0:
		return nil, badArg("retries", "must be >= 0 (got %d)", a.retries)
	case a.rtimeout < 0:
		return nil, badArg("rtimeout", "must be >= 0 (got %d)", a.rtimeout)
	case a.warmstart < 0:
		return nil, badArg("warmstart", "must be >= 0 (got %d)", a.warmstart)
	case a.degrade < 0:
		return nil, badArg("degrade", "must be >= 0 (got %d)", a.degrade)
	case a.kill < 0:
		return nil, badArg("kill", "must be >= 0 (got %d)", a.kill)
	}
	if a.degrade > 0 {
		if links := (w-1)*h + w*(h-1); a.degrade > links {
			return nil, badArg("degrade", "%d exceeds the mesh's %d inter-router links", a.degrade, links)
		}
		if a.kill >= p.cycles {
			return nil, badArg("kill", "must be before the end of the traffic window (-cycles %d), got %d: the links would never die", p.cycles, a.kill)
		}
	}
	pool, err := exp.PoolFromFlag(a.parallel)
	if err != nil {
		return nil, &argError{Flag: "parallel", msg: err.Error()}
	}
	return pool, nil
}
