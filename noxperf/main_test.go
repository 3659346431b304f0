package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinySmoke runs every workload at tiny scale, untraced and traced, and
// checks that each run prints every metric BENCHMARK.json names, with its
// unit, and that every job matches its pinned tiny-scale digest.
func TestTinySmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	pinnedAll := regexp.MustCompile(`jobs=(\d+) failed=\d+ fail_frac=\S+ digests pinned=(\d+) checked-ok=true`)
	for _, w := range sp.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w.Name, "--scale", "tiny", "--seed", "0", "--trace", traced,
					"--trace-out", filepath.Join(t.TempDir(), "trace.json")}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, text)
				}
				if m := pinnedAll.FindStringSubmatch(text); m == nil || m[1] != m[2] {
					t.Fatalf("not every job matched a pinned tiny-scale digest:\n%s", text)
				}
				want := sp.EndToEnd
				if traced == "1" {
					want = sp.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
						continue
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ +` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(text) {
						t.Errorf("metric %s is not printed with its unit", m.Name)
					}
				}
			})
		}
	}
}

// TestHostScale checks that a job's scale is the trimmed mean of the samples
// nearest it, over calibRefNs: one outlier among ten samples is trimmed,
// and the window is cut short at the ends of the run.
func TestHostScale(t *testing.T) {
	ref := time.Duration(calibRefNs)
	samples := make([]time.Duration, 21) // 20 jobs
	for i := range samples {
		samples[i] = 2 * ref
	}
	samples[10] = 40 * ref // a sample hit by a preemption
	scale := hostScale(samples, 20)
	for i, s := range scale {
		if s != 2 {
			t.Errorf("job %d: scale %v, want 2", i, s)
		}
	}
	samples[0], samples[1] = ref, ref // the first job's window: 6 samples, 2 fast; 1 trimmed at each end
	if s := hostScale(samples, 20)[0]; s != 1.75 {
		t.Errorf("job 0: scale %v, want 1.75", s)
	}
}
