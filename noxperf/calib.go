package main

import (
	"slices"
	"time"
)

// Host-speed calibration. On the shared 2-vCPU reference host the speed of
// the same job drifts by 20-40% over minutes (NOTES.md, "Measured noise"),
// which no run short enough for the benchmark's time budget averages out.
// So a run also times a fixed calibration kernel — the benchmark's own code,
// not the program's — once before the first job and once after every job,
// and reports host times scaled to the reference host's speed: a job's time
// is divided by the trimmed mean of the calibration samples around it, over
// calibRefNs. A change to the program moves the scaled times in full; a
// change in host speed moves the job and the samples around it together.

// calibRefNs is one calibration sample's time on the reference host in its
// fast phase, in nanoseconds.
const calibRefNs = 8.0e6

// calibWindow is how many samples on each side of a job its scale uses.
const calibWindow = 5

// calibBuf is the kernel's working set: 256 KiB, about a core's L2. Of
// three kernels timed against repeated fig8 jobs (NOTES.md), this one
// tracked the jobs' drift best; one that misses a 4 MiB buffer mostly
// measured memory contention the jobs do not feel.
var calibBuf = make([]uint32, 1<<16)

var calibSink uint32

// calibSample runs the calibration kernel once — a fixed mix of dependent
// integer arithmetic, L2-resident loads and stores, and data-dependent
// branches — and returns its wall time.
func calibSample() time.Duration {
	const mask = 1<<16 - 1
	t0 := time.Now()
	x, s := uint32(12345), uint32(0)
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		j := x & mask
		calibBuf[j] += x
		if calibBuf[(j*7)&mask]&1 == 0 {
			s += x >> 3
		} else {
			s ^= x
		}
	}
	calibSink = s
	return time.Since(t0)
}

// hostScale returns, for each of n jobs, the factor by which the host ran
// slower than the reference host around that job: the mean of the
// calibration samples within calibWindow of it, less the lowest and highest
// fifth, over calibRefNs. samples[i] was taken just before job i and
// samples[i+1] just after it. The samples are bimodal on the reference host
// (about 8 and 12 ms); a mean follows the mix of the two modes, where a
// median jumps between them.
func hostScale(samples []time.Duration, n int) []float64 {
	scale := make([]float64, n)
	for i := range scale {
		lo, hi := max(0, i+1-calibWindow), min(len(samples), i+1+calibWindow)
		w := slices.Clone(samples[lo:hi])
		slices.Sort(w)
		w = w[len(w)/5 : len(w)-len(w)/5]
		var sum time.Duration
		for _, d := range w {
			sum += d
		}
		scale[i] = float64(sum) / float64(len(w)) / calibRefNs
	}
	return scale
}
