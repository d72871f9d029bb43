package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"artemis/pkg/artemis"
)

// result is the last line a run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, workload string, trace bool, hook func(*artemis.Config)) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	dir := t.TempDir()
	code := execute(options{workload: workload, seed: 3, seconds: 1, trace: trace, tiny: true,
		traceOut: dir, tmpDir: dir, hook: hook, wait: 2 * time.Second}, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, out.String(), errb.String())
	}
	return code, res, out.String()
}

// spec is the part of BENCHMARK.json the result lines must match.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts the result carries exactly the listed metrics,
// with their units.
func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}

// A tiny run of every workload passes the oracle and reports exactly
// the end-to-end metrics, all of them positive.
func TestTinyRunsPassOracle(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			code, res, out := runTiny(t, w, false, nil)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			checkMetrics(t, res, s.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// A traced run reports exactly the per-layer metrics, standalone layer
// timings included.
func TestTracedRunReportsLayers(t *testing.T) {
	code, res, out := runTiny(t, "wire-bmp", true, nil)
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	checkMetrics(t, res, loadSpec(t).PerLayer)
	for _, name := range []string{"bmp.decode_ns_per_msg", "ingest.filter_ns_per_route", "rib.apply_ns_per_event", "alert_p99_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// Broken set-ups must trip the oracle: a failed operation count and a
// non-zero exit.
func TestBrokenSetupsFail(t *testing.T) {
	cases := map[string]func(*artemis.Config){
		// No mitigation fires, so every alert misses its mitigation.
		"manual-mitigation": func(c *artemis.Config) { c.Mitigation.Manual = true },
		// The controller's modelled delay outlasts the run, so no
		// announcement reaches the injector in time.
		"slow-controller": func(c *artemis.Config) { c.Mitigation.ConfigDelay = artemis.Duration(60e9) },
	}
	for name, hook := range cases {
		t.Run(name, func(t *testing.T) {
			code, res, out := runTiny(t, "hijack-storm", false, hook)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("broken set-up passed: exit %d, result %+v\n%s", code, res, out)
			}
		})
	}
}
