package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/value"
)

// indexedParts counts the row parts of st that hold table column col, an
// INTEGER column, and those of them an index on it serves: an equality on
// a value no row holds then takes no block, where a scan of a part that
// has rows takes one per 256 slots.
func indexedParts(st *storage, col int) (held, indexed int) {
	for _, p := range st.parts {
		if l, ok := p.local(col); ok && p.rs != nil {
			held++
			if p.rs.Blocks(&expr.Comparison{Col: l, Op: expr.Eq, Val: value.NewInt(-1)}, nil, nil).N == 0 {
				indexed++
			}
		}
	}
	return held, indexed
}

// TestIndexRoutingAllLayouts declares secondary indexes on every layout:
// each materializes in exactly the row parts that hold its column, and
// CreateIndex reports ErrIndexNotMaterialized where none does. An equality
// select on an indexed column returns the row layout's rows, and the
// indexes survive a migration to each other layout.
func TestIndexRoutingAllLayouts(t *testing.T) {
	cols := []int{1, 4} // grp: a row part holds it on every layout but two; qty: on fewer
	eqs := []*query.Query{
		{Kind: query.Select, Table: "par", Pred: &expr.Comparison{Col: 1, Op: expr.Eq, Val: value.NewInt(5)}},
		{Kind: query.Select, Table: "par", Pred: &expr.Comparison{Col: 4, Op: expr.Eq, Val: value.NewInt(7)}},
	}
	layouts := parLayouts()
	var want [][][]value.Value // the row layout's answers to eqs
	check := func(t *testing.T, label string, db *Database) {
		t.Helper()
		for _, c := range cols {
			if held, indexed := indexedParts(db.tables["par"].store, c); indexed != held {
				t.Errorf("%s: column %d: %d of %d row parts indexed", label, c, indexed, held)
			}
		}
		for i, q := range eqs {
			got := sortedRows(mustExec(t, db, q).Rows)
			if want == nil || len(want) <= i {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s: %s returned %d rows, the row layout %d", label, q, len(got), len(want[i]))
			}
		}
	}
	for _, from := range layouts {
		t.Run(from.name, func(t *testing.T) {
			db := buildParDB(t, from.store, from.spec)
			for _, c := range cols {
				err := db.CreateIndex("par", c)
				held, _ := indexedParts(db.tables["par"].store, c)
				if (held == 0) != errors.Is(err, ErrIndexNotMaterialized) || err != nil && held > 0 {
					t.Errorf("column %d: %d row parts hold it, CreateIndex returned %v", c, held, err)
				}
			}
			check(t, from.name, db)
			for _, to := range layouts {
				if to.name == from.name {
					continue
				}
				if err := db.MigrateLayout("par", to.store, to.spec); err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("%s -> %s", from.name, to.name), db)
			}
		})
	}
}
