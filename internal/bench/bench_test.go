package bench

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"hybridstore/internal/costmodel"
)

// quickCfg runs experiments at a small scale with the deterministic
// default model so unit tests stay fast and machine-independent where
// possible.
func quickCfg() Config {
	return Config{
		Scale: 0.05, Seed: 7, Reps: 3,
		Model: costmodel.DefaultModel(),
		Out:   &bytes.Buffer{},
	}
}

func TestResultPrinting(t *testing.T) {
	r := &Result{
		Name:    "demo",
		Title:   "Demo",
		Columns: []string{"a", "b"},
	}
	r.AddRow([]string{"1", "2"}, map[string]float64{"a": 1})
	r.Notes = append(r.Notes, "a note")
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	for _, frag := range []string{"demo", "a note", "1", "-"} {
		if !strings.Contains(out, frag) {
			t.Errorf("printout missing %q:\n%s", frag, out)
		}
	}
	if r.Series["a"][0] != 1 {
		t.Error("series not recorded")
	}
}

func TestLookupAndUnknown(t *testing.T) {
	if _, ok := Lookup("fig6a"); !ok {
		t.Error("fig6a missing")
	}
	if _, ok := Lookup("FIG10"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10", "ablation", "durability", "concurrent-clients", "parallel", "planner", "ingest"}
	have := Experiments()
	if len(have) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(have), len(want))
	}
	for i, n := range want {
		if have[i].Name != n {
			t.Errorf("experiment %d = %s, want %s", i, have[i].Name, n)
		}
	}
}

func TestFig6aQuick(t *testing.T) {
	res, err := Run("fig6a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Actual runtimes must grow with data volume for both stores, and the
	// column store must aggregate faster than the row store at the top
	// size (the asymmetry the advisor exploits).
	rs, cs := res.Series["rs_act"], res.Series["cs_act"]
	if rs[len(rs)-1] <= rs[0] {
		t.Errorf("row store runtime not growing: %v", rs)
	}
	if cs[len(cs)-1] <= cs[0] {
		t.Errorf("column store runtime not growing: %v", cs)
	}
	if cs[len(cs)-1] >= rs[len(rs)-1] {
		t.Errorf("column store should aggregate faster: cs=%v rs=%v", cs, rs)
	}
}

func TestFig6bQuick(t *testing.T) {
	// One to five aggregates over 12.5k rows differ by a few hundred
	// microseconds; the median of three runs does not resolve that on a
	// loaded host.
	cfg := quickCfg()
	cfg.Reps = 15
	res, err := Run("fig6b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	rs := res.Series["rs_act"]
	if rs[4] <= rs[0] {
		t.Errorf("runtime should grow with aggregates: %v", rs)
	}
}

func TestFig7aQuick(t *testing.T) {
	res, err := Run("fig7a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The advisor's line must track within the two baselines (it picks
	// one of them).
	for i := range res.Series["advisor"] {
		adv := res.Series["advisor"][i]
		rs, cs := res.Series["rs_only"][i], res.Series["cs_only"][i]
		if adv != rs && adv != cs {
			t.Errorf("point %d: advisor runtime matches neither store", i)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	res, err := Run("fig8", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestFig9aQuick(t *testing.T) {
	res, err := Run("fig9a", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestFig10Quick(t *testing.T) {
	res, err := Run("fig10", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, key := range []string{"rs_only", "cs_only", "table", "partitioned"} {
		if len(res.Series[key]) != 1 {
			t.Errorf("missing series %q", key)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	res, err := Run("ablation", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Series["codeagg_speedup"][0] <= 0 {
		t.Error("per-code aggregation speedup missing")
	}
	if res.Series["delta_speedup"][0] <= 1 {
		t.Errorf("delta should speed up loads: %v", res.Series["delta_speedup"])
	}
}

func TestConcurrentClientsQuick(t *testing.T) {
	res, err := Run("concurrent-clients", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The sweep must include a point with >= 8 concurrent sessions.
	max := 0.0
	for _, c := range res.Series["clients"] {
		if c > max {
			max = c
		}
	}
	if max < 8 {
		t.Fatalf("sweep peaked at %.0f sessions, acceptance needs >= 8", max)
	}
	// The differential oracle check must have passed.
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "differential check") {
			found = true
			if !strings.Contains(n, "PASS") {
				t.Fatalf("differential check note: %s", n)
			}
		}
	}
	if !found {
		t.Fatal("no differential check note")
	}
}

// TestParallelExperimentSmoke is the CI bench smoke for the morsel
// executor: the experiment itself fails if parallel results diverge
// from serial ones, and on hosts with at least 4 cores the scan and
// group-by speedups must not fall below serial beyond a 10% tolerance.
// Single- and dual-core hosts only get the correctness check — a
// speedup floor there would assert noise.
func TestParallelExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel experiment smoke skipped in -short")
	}
	cfg := quickCfg()
	cfg.Scale = 0.25
	cfg.Reps = 5
	res, err := Parallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// CI pins GOMAXPROCS=4 on any runner; only real cores give a speedup.
	if procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU()); procs < 4 {
		t.Logf("%d usable cores: correctness verified, speedup floor skipped", procs)
		return
	}
	for _, q := range []string{"scan", "group-by", "filter-agg", "join"} {
		sp := res.Series[q+"_speedup"]
		if len(sp) != 1 {
			t.Fatalf("missing %s speedup series", q)
		}
		if sp[0] < 0.9 {
			t.Errorf("%s: parallel slower than serial beyond tolerance (speedup %.2fx)", q, sp[0])
		}
	}
}

// TestIngestExperimentSmoke is the CI bench smoke for the bulk-ingest
// path: the experiment hard-fails on any lost/duplicated row or an
// unbounded soak delta, and the COPY-vs-INSERT ratio must clear the
// acceptance floor with margin to spare even on slow CI disks.
func TestIngestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ingest experiment smoke skipped in -short")
	}
	cfg := quickCfg()
	res, err := Ingest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Series["copy vs insert"]
	if len(ratio) != 1 {
		t.Fatal("missing copy vs insert series")
	}
	if ratio[0] < 5 {
		t.Errorf("durable COPY only %.1fx single-statement INSERT, acceptance floor is 5x", ratio[0])
	}
	if len(res.Series["soak rows/s"]) != 1 || len(res.Series["soak peak delta rows"]) != 1 {
		t.Error("missing soak series")
	}
}
