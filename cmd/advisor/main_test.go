package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/engine"
	"hybridstore/internal/server"
	"hybridstore/internal/sql"
)

const (
	schemaFile   = "testdata/schema.sql"
	workloadFile = "testdata/workload.sql"
)

// TestRunPrintsRecommendation drives the offline advisor over a two-table
// schema and workload: the report carries the four estimated runtimes and
// one ALTER TABLE statement per table, which parses back and, run on an
// engine holding the schema, leaves each table in the layout it names.
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
	db := engine.New()
	schemaStmts, err := sql.ParseScript(string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range schemaStmts {
		if err := db.CreateTable(st.CreateTable, catalog.RowStore); err != nil {
			t.Fatal(err)
		}
	}
	var ddl []string
	for _, line := range strings.Split(report, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "ALTER TABLE ") {
			ddl = append(ddl, line)
		}
	}
	stmts, err := sql.ParseScript(strings.Join(ddl, "\n"), server.Resolver(db))
	if err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
	seen := map[string]bool{}
	for i, st := range stmts {
		at := st.AlterTable
		if at == nil || seen[at.Table] {
			t.Fatalf("not one ALTER TABLE per table: %q", ddl[i])
		}
		seen[at.Table] = true
		if _, err := server.Exec(context.Background(), db, st); err != nil {
			t.Fatalf("%s: %v", ddl[i], err)
		}
		if e := db.Catalog().Table(at.Table); e.Store != at.Store || !e.Partitioning.Equal(at.Spec) {
			t.Errorf("%s left %s in %s %s", ddl[i], at.Table, e.Store, e.Partitioning)
		}
	}
	if len(seen) != len(schemaStmts) {
		t.Errorf("DDL covers %d of %d tables:\n%s", len(seen), len(schemaStmts), report)
	}
}

// TestRunRejectsDDLInWorkload: a workload script holds statements to
// estimate, so CREATE TABLE and ALTER TABLE in it are refused.
func TestRunRejectsDDLInWorkload(t *testing.T) {
	for _, ddl := range []string{
		"CREATE TABLE extra (id BIGINT, PRIMARY KEY (id));",
		"ALTER TABLE region MOVE TO COLUMN STORE;",
	} {
		path := filepath.Join(t.TempDir(), "workload.sql")
		if err := os.WriteFile(path, []byte("SELECT COUNT(*) FROM region;\n"+ddl+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		err := run(&out, schemaFile, path, "", "", "", false, 100_000)
		if err == nil || !strings.Contains(err.Error(), "must not contain DDL") {
			t.Errorf("%s: err = %v, want a DDL refusal", ddl, err)
		}
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
