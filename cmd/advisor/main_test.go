package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"hybridstore/internal/costmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
)

const (
	schemaFile   = "testdata/schema.sql"
	workloadFile = "testdata/workload.sql"
)

// TestRunPrintsRecommendation drives the offline advisor over a two-table
// schema and workload: the report carries the four estimated runtimes and
// one DDL line per table that names only tables and columns the schema
// declares.
func TestRunPrintsRecommendation(t *testing.T) {
	var out strings.Builder
	if err := run(&out, schemaFile, workloadFile, "orders=200000,region=10", "", "", false, 100_000); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, line := range []string{
		"all tables in the row store:",
		"all tables in the column store:",
		"recommended table-level layout:",
		"recommended partitioned layout:",
	} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks %q:\n%s", line, report)
		}
	}

	src, err := os.ReadFile(schemaFile)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := sql.ParseScript(string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*schema.Table{}
	for _, st := range stmts {
		tables[st.CreateTable.Name] = st.CreateTable
	}
	colList := regexp.MustCompile(`\(([a-z_]+(?:, [a-z_]+)*)\)`)
	seen := map[string]bool{}
	for _, line := range strings.Split(report, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "ALTER TABLE ") {
			continue
		}
		name := strings.Fields(line)[2]
		sch := tables[name]
		if sch == nil || seen[name] || !strings.HasSuffix(line, ";") {
			t.Errorf("DDL line for an unknown, repeated or unterminated table: %q", line)
			continue
		}
		seen[name] = true
		for _, m := range colList.FindAllStringSubmatch(line, -1) {
			for _, col := range strings.Split(m[1], ", ") {
				if sch.ColIndex(col) < 0 {
					t.Errorf("DDL names column %q, which %s does not declare: %q", col, name, line)
				}
			}
		}
	}
	if len(seen) != len(tables) {
		t.Errorf("DDL covers %d of %d tables:\n%s", len(seen), len(tables), report)
	}
}

// TestRunRejectsMalformedRows: a -rows entry without '=' is refused.
func TestRunRejectsMalformedRows(t *testing.T) {
	var out strings.Builder
	err := run(&out, schemaFile, workloadFile, "orders=10,region", "", "", false, 100_000)
	if err == nil || !strings.Contains(err.Error(), "bad -rows entry") {
		t.Fatalf("err = %v, want a bad -rows entry error", err)
	}
}

// TestRunModelRoundTrip: a model written by -save-model loads back
// through -model unchanged.
func TestRunModelRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saved, resaved := filepath.Join(dir, "model.json"), filepath.Join(dir, "again.json")
	var out strings.Builder
	if err := run(&out, schemaFile, workloadFile, "", "", saved, false, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, schemaFile, workloadFile, "", saved, resaved, false, 100_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "loaded cost model from "+saved) {
		t.Errorf("-model did not load %s:\n%s", saved, out.String())
	}
	load := func(path string) *costmodel.Model {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := &costmodel.Model{}
		if err := json.Unmarshal(data, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got, want := load(resaved), costmodel.DefaultModel(); !reflect.DeepEqual(got, want) {
		t.Errorf("model after a save and a load differs from the one saved:\n got %+v\nwant %+v", got, want)
	}
}
