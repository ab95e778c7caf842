package bench

import (
	"bytes"
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
	want := []string{"fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10"}
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
	// Runtimes must grow with data volume for both stores. Only the end
	// points are compared: they are 10x apart in rows, while neighbouring
	// sizes of this quick run differ by less than scheduler noise. Which
	// store aggregates faster is TestCalibrateSmoke's check, made there on
	// calibrated costs.
	for _, key := range []string{"rs_est", "rs_act", "cs_est", "cs_act"} {
		s := res.Series[key]
		if s[len(s)-1] <= s[0] {
			t.Errorf("%s not growing with rows: %v", key, s)
		}
	}
}

func TestFig6bQuick(t *testing.T) {
	res, err := Run("fig6b", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// One to five aggregates over this quick run's table differ by less
	// than measurement noise, so growth is checked on the deterministic
	// estimates; the measured series only has to be present.
	for _, prefix := range []string{"rs", "cs"} {
		est, act := res.Series[prefix+"_est"], res.Series[prefix+"_act"]
		if est[4] <= est[0] {
			t.Errorf("%s estimate should grow with aggregates: %v", prefix, est)
		}
		for i, v := range act {
			if v <= 0 {
				t.Errorf("%s runtime %d not measured: %v", prefix, i, act)
			}
		}
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
