// Command advisor is the offline storage advisor: given a schema script
// and a workload script (both in the engine's SQL dialect), it loads the
// schema, derives or loads table statistics, estimates the workload cost
// for row-store, column-store and mixed placements, and prints the
// recommended storage layout together with the DDL to apply it — the
// paper's offline mode (Figure 4).
//
// Usage:
//
//	advisor -schema schema.sql -workload workload.sql [-rows table=N,...]
//	        [-model model.json] [-calibrate] [-save-model model.json]
//
// The schema script contains CREATE TABLE statements; the workload script
// contains the SELECT/INSERT/UPDATE/DELETE statements of the recorded or
// expected workload. Because no data is loaded, per-table row counts are
// supplied with -rows (default 100000 per table); statistics are
// approximated from the schema and row counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hybridstore/internal/advisor"
	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	calib "hybridstore/internal/costmodel/calibrate"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/sql"
	"hybridstore/internal/value"
)

func main() {
	var (
		schemaPath   = flag.String("schema", "", "path to a CREATE TABLE script")
		workloadPath = flag.String("workload", "", "path to the workload SQL script")
		rowsFlag     = flag.String("rows", "", "per-table row counts, e.g. orders=1500000,lineitem=6000000")
		modelPath    = flag.String("model", "", "load a calibrated cost model from JSON")
		calibrate    = flag.Bool("calibrate", false, "calibrate the cost model against this machine (slower, more accurate)")
		saveModel    = flag.String("save-model", "", "write the used cost model to JSON")
		defaultRows  = flag.Int("default-rows", 100_000, "row count assumed for tables not listed in -rows")
	)
	flag.Parse()
	if *schemaPath == "" || *workloadPath == "" {
		fmt.Fprintln(os.Stderr, "advisor: -schema and -workload are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *schemaPath, *workloadPath, *rowsFlag, *modelPath, *saveModel, *calibrate, *defaultRows); err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, schemaPath, workloadPath, rowsFlag, modelPath, saveModel string, calibrate bool, defaultRows int) error {
	// Parse the schema script.
	schemaSQL, err := os.ReadFile(schemaPath)
	if err != nil {
		return err
	}
	cat := catalog.New()
	var tables []*schema.Table
	stmts, err := sql.ParseScript(string(schemaSQL), nil)
	if err != nil {
		return fmt.Errorf("parsing schema: %w", err)
	}
	for _, st := range stmts {
		if st.CreateTable == nil {
			return fmt.Errorf("schema script must contain only CREATE TABLE statements")
		}
		tables = append(tables, st.CreateTable)
	}
	if len(tables) == 0 {
		return fmt.Errorf("no tables in schema script")
	}
	resolver := func(name string) *schema.Table {
		for _, t := range tables {
			if strings.EqualFold(t.Name, name) {
				return t
			}
		}
		return nil
	}

	// Row counts.
	rowCounts := map[string]int{}
	if rowsFlag != "" {
		for _, part := range strings.Split(rowsFlag, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				return fmt.Errorf("bad -rows entry %q", part)
			}
			n, err := strconv.Atoi(kv[1])
			if err != nil || n < 0 {
				return fmt.Errorf("bad -rows count %q", kv[1])
			}
			rowCounts[strings.ToLower(strings.TrimSpace(kv[0]))] = n
		}
	}

	// Register tables with approximate statistics.
	for _, t := range tables {
		rows := defaultRows
		if n, ok := rowCounts[strings.ToLower(t.Name)]; ok {
			rows = n
		}
		if err := cat.Add(&catalog.TableEntry{
			Schema: t,
			Store:  catalog.RowStore,
			Stats:  approximateStats(t, rows),
		}); err != nil {
			return err
		}
	}

	// Parse the workload.
	workloadSQL, err := os.ReadFile(workloadPath)
	if err != nil {
		return err
	}
	wstmts, err := sql.ParseScript(string(workloadSQL), resolver)
	if err != nil {
		return fmt.Errorf("parsing workload: %w", err)
	}
	w := &query.Workload{}
	for _, st := range wstmts {
		if st.Query == nil {
			return fmt.Errorf("workload script must not contain DDL")
		}
		w.Add(st.Query)
	}
	if w.Len() == 0 {
		return fmt.Errorf("empty workload")
	}

	// Cost model: loaded, calibrated, or the analytic default.
	var model *costmodel.Model
	switch {
	case modelPath != "":
		data, err := os.ReadFile(modelPath)
		if err != nil {
			return err
		}
		model = &costmodel.Model{}
		if err := json.Unmarshal(data, model); err != nil {
			return fmt.Errorf("loading model: %w", err)
		}
		fmt.Fprintf(out, "loaded cost model from %s\n", modelPath)
	case calibrate:
		fmt.Fprintln(out, "calibrating cost model against this machine...")
		model, err = calib.Calibrate(calib.DefaultConfig())
		if err != nil {
			return err
		}
	default:
		model = costmodel.DefaultModel()
		fmt.Fprintln(out, "using the built-in analytic cost model (use -calibrate for machine-specific estimates)")
	}
	if saveModel != "" {
		data, err := json.MarshalIndent(model, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(saveModel, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote cost model to %s\n", saveModel)
	}

	adv := advisor.New(model)
	rec := adv.Recommend(w, advisor.InfoFromCatalog(cat), nil, nil)

	fmt.Fprintf(out, "\nworkload: %d statements, %.2f%% OLAP, tables: %s\n",
		w.Len(), w.OLAPFraction()*100, strings.Join(w.Tables(), ", "))
	fmt.Fprintf(out, "\nestimated workload runtimes:\n")
	fmt.Fprintf(out, "  all tables in the row store:    %10.2f ms\n", rec.RowOnlyCost/1e6)
	fmt.Fprintf(out, "  all tables in the column store: %10.2f ms\n", rec.ColumnOnlyCost/1e6)
	fmt.Fprintf(out, "  recommended table-level layout: %10.2f ms\n", rec.TableLevelCost/1e6)
	fmt.Fprintf(out, "  recommended partitioned layout: %10.2f ms\n", rec.PartitionedCost/1e6)

	fmt.Fprintf(out, "\nrecommended storage layout:\n")
	for _, ddl := range rec.DDL {
		fmt.Fprintf(out, "  %s\n", ddl)
	}
	if len(rec.Reasons) > 0 {
		fmt.Fprintf(out, "\npartitioning rationale:\n")
		for t, r := range rec.Reasons {
			fmt.Fprintf(out, "  %-12s %s\n", t+":", r)
		}
	}
	return nil
}

// approximateStats fabricates table statistics from the schema and a row
// count: key columns are assumed unique, low-cardinality types get small
// distinct counts. Offline mode works from "basic table statistics"; when
// only the schema is available this is the documented approximation.
func approximateStats(t *schema.Table, rows int) *catalog.TableStats {
	n := t.NumColumns()
	st := &catalog.TableStats{
		NumRows:     rows,
		DistinctN:   make([]int, n),
		MinV:        make([]value.Value, n),
		MaxV:        make([]value.Value, n),
		HasRange:    make([]bool, n),
		Compression: make([]float64, n),
		AvgVarchar:  make([]int, n),
	}
	for i, c := range t.Columns {
		switch {
		case t.IsPrimaryKey(i):
			st.DistinctN[i] = rows
		case c.Type == value.Varchar:
			st.DistinctN[i] = 100
			st.AvgVarchar[i] = 16
		case c.Type == value.Date:
			st.DistinctN[i] = 2500
		default:
			st.DistinctN[i] = rows / 10
			if st.DistinctN[i] < 1 {
				st.DistinctN[i] = 1
			}
		}
		if c.Type != value.Varchar {
			st.HasRange[i] = true
			switch c.Type {
			case value.Integer:
				st.MinV[i], st.MaxV[i] = value.NewInt(0), value.NewInt(int64(rows-1))
			case value.Bigint:
				st.MinV[i], st.MaxV[i] = value.NewBigint(0), value.NewBigint(int64(rows-1))
			case value.Double:
				st.MinV[i], st.MaxV[i] = value.NewDouble(0), value.NewDouble(float64(rows-1))
			case value.Date:
				st.MinV[i], st.MaxV[i] = value.NewDate(8035), value.NewDate(10441)
			}
		}
	}
	for i := range st.Compression {
		st.Compression[i] = 0.6
	}
	return st
}
