package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload tiny, untraced and traced, and checks that
// the result line carries exactly the declared metrics with their units
// and that every op matched the reference.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds models at 512²; skipped in -short mode")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			wl, err := lookupWorkload(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			wl.opsPerSecond, wl.minOps, wl.accPasses = 0, 2, 1
			rep, err := runBench(options{wl: wl, seed: 3, seconds: 0.05, trace: traced, dir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.Name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced && res.Metrics["ok_pct"].Value != 100 {
				t.Errorf("%s: ok_pct %v, want 100", w.Name, res.Metrics["ok_pct"].Value)
			}
		}
	}
}
