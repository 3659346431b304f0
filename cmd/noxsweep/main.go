// Command noxsweep regenerates Figures 8 and 9: latency and energy-delay^2
// versus offered injection bandwidth, per traffic pattern, for all four
// router architectures.
//
// Usage:
//
//	noxsweep -figure 8                 # all patterns, latency panels
//	noxsweep -figure 9 -pattern uniform
//	noxsweep -fast                     # reduced cycles for a quick look
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/probe"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/version"
)

func main() {
	var (
		figure   = flag.Int("figure", 8, "figure to regenerate: 8 (latency) or 9 (energy-delay^2)")
		pattern  = flag.String("pattern", "all", "traffic pattern or 'all'")
		fast     = flag.Bool("fast", false, "reduced warmup/measurement for a quick look")
		csv      = flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
		seed     = flag.Uint64("seed", 0xA11CE, "simulation seed")
		parallel = flag.Int("parallel", 0, "worker count for sweep points (0 = all CPUs, 1 = serial; output is identical)")
		shards   = flag.Int("shards", 0, "intra-simulation worker shards per point (0 = auto, 1 = serial; output is identical)")
		warm     = flag.Bool("warmstart", false, "warm once per architecture at -warmrate and fork every rate point from the copy (CSV is byte-identical to the cold sweep at the same warm rate)")
		warmRate = flag.Float64("warmrate", 600, "warm-up injection rate in MB/s/node for -warmstart")
		ckptDir  = flag.String("checkpoint", "", "persist per-architecture warm images into this directory (implies -warmstart)")
		restore  = flag.String("restore", "", "load cached warm images from this directory instead of re-warming; missing images are computed (implies -warmstart)")
	)
	tf := telemetry.AddFlags(flag.CommandLine)
	prof := probe.AddProfileFlags(flag.CommandLine)
	ver := version.Flag(flag.CommandLine)
	flag.Parse()
	version.ExitIf(*ver, "noxsweep")
	sess, err := tf.Start("noxsweep")
	if err != nil {
		fmt.Fprintln(os.Stderr, "noxsweep:", err)
		os.Exit(1)
	}
	defer sess.Close()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "noxsweep:", err)
		os.Exit(1)
	}
	defer stopProf()
	pool, err := exp.PoolFromFlag(*parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noxsweep:", err)
		os.Exit(1)
	}

	if *figure != 8 && *figure != 9 {
		fmt.Fprintln(os.Stderr, "noxsweep: -figure must be 8 or 9")
		os.Exit(1)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "noxsweep:", err)
			os.Exit(1)
		}
	}

	patterns := traffic.PatternNames
	if *pattern != "all" {
		patterns = []string{*pattern}
	}

	for _, pat := range patterns {
		base := harness.SyntheticConfig{Pattern: pat, Seed: *seed, Shards: *shards,
			Progress: sess.Sampler(), NewRecorder: sess.NewRecorder}
		if *fast {
			base.WarmupCycles, base.MeasureCycles, base.DrainCycles = 1500, 4000, 15000
		}
		if *warm || *ckptDir != "" || *restore != "" {
			base.WarmStart = true
			base.WarmRateMBps = *warmRate
			base.WarmSaveDir = *ckptDir
			base.WarmLoadDir = *restore
		}
		points, err := harness.SweepSynthetic(base, harness.DefaultRates(pat), pool)
		if err != nil {
			fmt.Fprintln(os.Stderr, "noxsweep:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(harness.SweepCSV(pat, points))
			continue
		}
		if *figure == 8 {
			fmt.Print(harness.FormatSweepLatency(pat, points))
		} else {
			fmt.Print(harness.FormatSweepED2(pat, points))
		}
		fmt.Print(harness.FormatSaturation(pat, points))
		fmt.Println()
	}
}
