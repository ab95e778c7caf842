package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 2012, seconds: 0.6, trace: trace, smoke: true,
		scratch: t.TempDir(), out: t.TempDir(),
	}
}

// Every workload runs end to end on tiny tables: set-up, the closed-loop
// run, the oracle. No timing is asserted.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := measureEndToEnd(smokeConfig(t, w, false), benches[w])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want the %d end-to-end metrics", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: present %v, unit %q, want %q", d.Name, ok, m.Unit, d.Unit)
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v, want a positive number", d.Name, m.Value)
				}
			}
		})
	}
}

// Every workload's layer replay runs, its spans nest, and its layer
// shares add up to the replayed statements' total time.
func TestSmokeLayers(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, true)
			res, err := measureLayers(cfg, benches[w])
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct %v, failed %d", res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want the %d per-layer metrics", len(res.Metrics), len(perLayer))
			}
			data, err := os.ReadFile(filepath.Join(cfg.out, "trace-"+w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			// Every span name is a layer share, reported as <name>_ns.
			shares, seen := 0.0, map[string]bool{}
			for _, s := range spans {
				if !seen[s.Name] {
					seen[s.Name] = true
					m, ok := res.Metrics[s.Name+"_ns"]
					if !ok {
						t.Errorf("span %s has no per-layer metric %s_ns", s.Name, s.Name)
					}
					shares += m.Value
				}
			}
			total := res.Metrics["replay.total_ns"].Value
			if total <= 0 || math.Abs(shares-total) > 0.01*total {
				t.Errorf("layer shares add up to %v, replay.total_ns is %v", shares, total)
			}
			if v := res.Metrics["trace.overhead_ratio"].Value; v <= 0 {
				t.Errorf("trace.overhead_ratio = %v, want it reported", v)
			}

			var roots, selfSum, rootSum int64
			for i, s := range spans {
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
				}
				if s.Parent >= i {
					t.Fatalf("span %d (%s) has parent %d, want an earlier span", i, s.Name, s.Parent)
				}
				if s.Parent < 0 {
					roots++
					rootSum += s.End - s.Start
				}
			}
			for _, ns := range selfTimes(spans) {
				selfSum += ns
			}
			if roots < 200 {
				t.Errorf("%d statements replayed, want at least 200", roots)
			}
			if selfSum != rootSum {
				t.Errorf("self times add up to %d ns, root spans to %d ns", selfSum, rootSum)
			}
		})
	}
}

// In-memory workloads never touch the log; the durable one merges in the
// background and recovers what it acknowledged.
func TestSmokeLayerCounters(t *testing.T) {
	res, err := measureLayers(smokeConfig(t, "oltp_point", true), benches["oltp_point"])
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["wal.flushes"].Value; v != 0 {
		t.Errorf("oltp_point: wal.flushes = %v, want 0 on an in-memory engine", v)
	}
	if v := res.Metrics["engine.stage_wal_wait_ns"].Value; v != 0 {
		t.Errorf("oltp_point: engine.stage_wal_wait_ns = %v, want 0", v)
	}
	res, err = measureLayers(smokeConfig(t, "htap_durable", true), benches["htap_durable"])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal.flushes", "migrate.merges", "engine.recovered_rows", "engine.stage_wal_wait_ns", "ingest.rows_per_s"} {
		if v := res.Metrics[name].Value; v <= 0 {
			t.Errorf("htap_durable: %s = %v, want it positive", name, v)
		}
	}
}

// BENCHMARK.json, at the repository root, lists the workloads and metrics
// this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// The README documents every metric and workload by name.
func TestReadmeNamesEverything(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, w := range workloadNames {
		if !strings.Contains(text, w) {
			t.Errorf("README.md does not mention workload %s", w)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(text, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention metric %s", d.Name)
		}
	}
}
