package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareResult is the outcome of comparing two snapshots: the human-readable
// report lines and the names of benchmarks whose ns/op regressed past the
// threshold.
type compareResult struct {
	Lines       []string
	Regressions []string
}

// pctDelta returns the relative change from old to new as a percentage.
func pctDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// compareSnapshots matches benchmarks by name and reports per-benchmark
// deltas. Two columns gate:
//
//   - ns/op: a benchmark regresses when its new time exceeds
//     old*(1+threshold) AND the absolute slowdown exceeds floorNs. The floor
//     exists because snapshots come from single-iteration runs (-benchtime
//     1x): on a nanosecond-scale benchmark a relative threshold compares
//     timer jitter, not code — a 100ns idle-cycle reading can double between
//     runs without a single instruction changing. A slowdown below the floor
//     is reported as "noise" instead of gating.
//   - allocs/op: same relative threshold, no noise floor — allocation counts
//     are deterministic per op, so any growth past the threshold is code,
//     not jitter. A zero baseline going nonzero always gates (0*(1+t) = 0):
//     that is the 0 allocs/op steady-state guarantee regressing. A -1
//     sentinel on either side means "not measured" and is skipped with a
//     note, never treated as a regression.
//
// B/op and custom metrics are informational and tolerate a missing metrics
// block on either side. Benchmarks present in only one snapshot are noted,
// not failed.
func compareSnapshots(oldSnap, newSnap Snapshot, threshold float64, floorNs float64) compareResult {
	var res compareResult
	oldBy := make(map[string]Benchmark, len(oldSnap.Benchmarks))
	for _, b := range oldSnap.Benchmarks {
		oldBy[b.Name] = b
	}
	seen := make(map[string]bool, len(newSnap.Benchmarks))

	for _, nb := range newSnap.Benchmarks {
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			res.Lines = append(res.Lines, fmt.Sprintf("  new   %-48s %12.0f ns/op (no baseline)", nb.Name, nb.NsPerOp))
			continue
		}
		d := pctDelta(ob.NsPerOp, nb.NsPerOp)
		mark := "ok    "
		if ob.NsPerOp > 0 && nb.NsPerOp > ob.NsPerOp*(1+threshold) {
			if nb.NsPerOp-ob.NsPerOp > floorNs {
				mark = "SLOWER"
				res.Regressions = append(res.Regressions, nb.Name)
			} else {
				mark = "noise "
			}
		}
		res.Lines = append(res.Lines, fmt.Sprintf("  %s %-48s %12.0f -> %12.0f ns/op  %+7.1f%%",
			mark, nb.Name, ob.NsPerOp, nb.NsPerOp, d))

		// Allocation columns: allocs/op gates on the same threshold (B/op is
		// informational); both are skipped when either side did not measure
		// them (ReportAllocs not called; recorded as -1).
		switch {
		case ob.BytesPerOp < 0 || nb.BytesPerOp < 0 || ob.AllocsPerOp < 0 || nb.AllocsPerOp < 0:
			res.Lines = append(res.Lines, "         alloc: not measured on both sides, skipped")
		default:
			allocMark := ""
			if nb.AllocsPerOp > ob.AllocsPerOp*(1+threshold) {
				allocMark = "  ALLOCS REGRESSED"
				res.Regressions = append(res.Regressions, nb.Name+" (allocs/op)")
			}
			res.Lines = append(res.Lines, fmt.Sprintf("         %12.0f -> %12.0f B/op  %+7.1f%%   %12.0f -> %12.0f allocs/op%s",
				ob.BytesPerOp, nb.BytesPerOp, pctDelta(ob.BytesPerOp, nb.BytesPerOp),
				ob.AllocsPerOp, nb.AllocsPerOp, allocMark))
		}

		// Custom metrics: informational; either snapshot may omit the block.
		if len(ob.Metrics) > 0 || len(nb.Metrics) > 0 {
			keys := make([]string, 0, len(ob.Metrics)+len(nb.Metrics))
			for k := range ob.Metrics {
				keys = append(keys, k)
			}
			for k := range nb.Metrics {
				if _, dup := ob.Metrics[k]; !dup {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				ov, oOK := ob.Metrics[k]
				nv, nOK := nb.Metrics[k]
				switch {
				case oOK && nOK:
					res.Lines = append(res.Lines, fmt.Sprintf("         metric %-24s %12.3f -> %12.3f  %+7.1f%%", k, ov, nv, pctDelta(ov, nv)))
				case nOK:
					res.Lines = append(res.Lines, fmt.Sprintf("         metric %-24s (new) %12.3f", k, nv))
				default:
					res.Lines = append(res.Lines, fmt.Sprintf("         metric %-24s %12.3f (gone)", k, ov))
				}
			}
		}
	}

	for _, ob := range oldSnap.Benchmarks {
		if !seen[ob.Name] {
			res.Lines = append(res.Lines, fmt.Sprintf("  gone  %-48s (in baseline only)", ob.Name))
		}
	}
	return res
}

// decodeSnapshot parses and validates snapshot JSON. Factored from
// loadSnapshot so the fuzz target can drive it on raw bytes.
func decodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, err
	}
	if !strings.HasPrefix(s.Schema, "nox-bench/") {
		return Snapshot{}, fmt.Errorf("unexpected schema %q", s.Schema)
	}
	return s, nil
}

// loadSnapshot reads and validates one snapshot file.
func loadSnapshot(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	s, err := decodeSnapshot(data)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare implements `noxbench -compare old.json new.json`. Exit status:
// 0 when no benchmark regressed, 1 on regression, 2 on usage/IO error.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64, floorNs float64) int {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noxbench:", err)
		return 2
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "noxbench:", err)
		return 2
	}
	fmt.Fprintf(w, "noxbench compare: %s (%s) -> %s (%s), threshold %+.0f%% (noise floor %.0f ns)\n",
		oldPath, oldSnap.describe(), newPath, newSnap.describe(), threshold*100, floorNs)
	res := compareSnapshots(oldSnap, newSnap, threshold, floorNs)
	for _, line := range res.Lines {
		fmt.Fprintln(w, line)
	}
	if len(res.Regressions) > 0 {
		fmt.Fprintf(w, "REGRESSION: %d reading(s) regressed past %.0f%% vs baseline: %s\n",
			len(res.Regressions), threshold*100, strings.Join(res.Regressions, ", "))
		return 1
	}
	fmt.Fprintf(w, "OK: %d benchmark(s) within threshold\n", len(newSnap.Benchmarks))
	return 0
}
