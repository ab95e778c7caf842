package engine

import (
	"reflect"
	"sort"
	"testing"

	"hybridstore/internal/agg"
	"hybridstore/internal/catalog"
	"hybridstore/internal/expr"
	"hybridstore/internal/query"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// The differential DML suite runs identical statement sequences against
// every layout and asserts identical visible state after every single
// statement — the properties the per-layout DML fast paths must not
// break: PK-changing updates, split-column moves, NULL assignments and
// failing statements — for the table keyed by id and for its keyless
// twin, which the hidden row key keys.

func dmlSchema() *schema.Table {
	return schema.MustNew("dml", []schema.Column{
		{Name: "id", Type: value.Bigint},                    // 0: PK
		{Name: "grp", Type: value.Integer},                  // 1: horizontal split column
		{Name: "amt", Type: value.Double, Nullable: true},   // 2
		{Name: "note", Type: value.Varchar, Nullable: true}, // 3
	}, "id")
}

// dmlKeylessSchema is dmlSchema declared without a primary key; the hidden
// row key is column 4.
func dmlKeylessSchema() *schema.Table {
	sch := dmlSchema()
	return schema.MustNew(sch.Name, sch.Columns)
}

func dmlRow(id int64) []value.Value {
	return []value.Value{
		value.NewBigint(id),
		value.NewInt(id),
		value.NewDouble(float64(id) * 1.5),
		value.NewVarchar([]string{"a", "b", "c"}[id%3]),
	}
}

// dmlTables is the keyed dml table and its keyless twin, each with every
// physical layout the engine supports.
func dmlTables() []struct {
	name    string
	sch     *schema.Table
	layouts []dmlLayout
} {
	keyless := dmlKeylessSchema()
	var keylessLayouts []dmlLayout
	for _, lay := range dmlLayouts() {
		lay.spec = keylessSpec(lay.spec, keyless.NumColumns()-1)
		keylessLayouts = append(keylessLayouts, lay)
	}
	return []struct {
		name    string
		sch     *schema.Table
		layouts []dmlLayout
	}{
		{"keyed", dmlSchema(), dmlLayouts()},
		{"keyless", keyless, keylessLayouts},
	}
}

// dmlLayout is one physical layout of the dml table.
type dmlLayout struct {
	name  string
	store catalog.StoreKind
	spec  *catalog.PartitionSpec
}

// dmlLayouts enumerates every physical layout the engine supports.
func dmlLayouts() []dmlLayout {
	horiz := &catalog.HorizontalSpec{
		SplitCol: 1, SplitVal: value.NewInt(50),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}
	vert := &catalog.VerticalSpec{RowCols: []int{0, 1, 3}, ColCols: []int{0, 2}}
	return []dmlLayout{
		{"row", catalog.RowStore, nil},
		{"column", catalog.ColumnStore, nil},
		{"horizontal", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz}},
		{"vertical", catalog.Partitioned, &catalog.PartitionSpec{Vertical: vert}},
		{"horizontal+vertical", catalog.Partitioned, &catalog.PartitionSpec{Horizontal: horiz, Vertical: vert}},
	}
}

// dmlStep is one statement with a short label for failure messages. keyed
// marks a step only the table keyed by id runs (it tests that key);
// affected, when set, is the row count every layout must report.
type dmlStep struct {
	name     string
	q        *query.Query
	keyed    bool
	affected int
}

// differentialSteps is the shared statement sequence. Statements that
// must fail are designed to fail identically on every layout (schema
// violations and single-partition PK collisions), so the visible state
// stays comparable throughout. On the keyless table, rows equal in every
// declared column are distinct rows.
func differentialSteps(keyless bool) []dmlStep {
	rows := make([][]value.Value, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, dmlRow(int64(i)))
	}
	eqID := func(id int64) expr.Predicate {
		return &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}
	}
	steps := []dmlStep{
		{name: "bulk insert", q: &query.Query{Kind: query.Insert, Table: "dml", Rows: rows}},
		{name: "range update", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: &expr.Between{Col: 1, Lo: value.NewInt(20), Hi: value.NewInt(60)},
			Set:  map[int]value.Value{2: value.NewDouble(999.5)}}},
		{name: "null set", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(10)},
			Set:  map[int]value.Value{3: value.Null(value.Varchar)}}},
		{name: "split move hot to cold", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(50), Hi: value.NewBigint(59)},
			Set:  map[int]value.Value{1: value.NewInt(10)}}},
		{name: "split move cold to hot", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: &expr.Comparison{Col: 0, Op: expr.Lt, Val: value.NewBigint(5)},
			Set:  map[int]value.Value{1: value.NewInt(90)}}},
		{name: "pk change", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: eqID(3), Set: map[int]value.Value{0: value.NewBigint(1003)}}},
		// id 1003 carries grp 90 (hot); id 60 also has grp >= 50 (hot):
		// the collision is within one partition, so every layout must
		// reject it — and reject it atomically.
		{name: "pk change duplicate (fails)", keyed: true, q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: eqID(1003), Set: map[int]value.Value{0: value.NewBigint(60)}}},
		// Multi-row update assigning the full PK a constant: intra-
		// statement duplicate, rejected everywhere.
		{name: "pk constant multi-row (fails)", keyed: true, q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: &expr.Between{Col: 0, Lo: value.NewBigint(70), Hi: value.NewBigint(72)},
			Set:  map[int]value.Value{0: value.NewBigint(2000)}}},
		{name: "not null violation (fails)", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: eqID(80), Set: map[int]value.Value{1: value.Null(value.Integer)}}},
		{name: "type mismatch (fails)", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: eqID(80), Set: map[int]value.Value{2: value.NewVarchar("oops")}}},
		{name: "split move with pk change", q: &query.Query{Kind: query.Update, Table: "dml",
			Pred: eqID(62), Set: map[int]value.Value{0: value.NewBigint(1062), 1: value.NewInt(5)}}},
		{name: "range delete", q: &query.Query{Kind: query.Delete, Table: "dml",
			Pred: &expr.Between{Col: 1, Lo: value.NewInt(0), Hi: value.NewInt(15)}}},
		{name: "in-list delete", q: &query.Query{Kind: query.Delete, Table: "dml",
			Pred: &expr.In{Col: 0, Vals: []value.Value{
				value.NewBigint(75), value.NewBigint(76), value.NewBigint(9999)}}}},
		{name: "reinsert after delete", q: &query.Query{Kind: query.Insert, Table: "dml",
			Rows: [][]value.Value{dmlRow(7), dmlRow(300)}}},
		// Atomic batch failures: no layout may keep a prefix of a batch
		// that failed partway through validation.
		{name: "insert batch with intra-batch dup (fails)", keyed: true, q: &query.Query{Kind: query.Insert, Table: "dml",
			Rows: [][]value.Value{dmlRow(400), dmlRow(401), dmlRow(400)}}},
		{name: "insert batch colliding with existing (fails)", keyed: true, q: &query.Query{Kind: query.Insert, Table: "dml",
			Rows: [][]value.Value{dmlRow(500), dmlRow(7)}}}, // id 7 re-inserted above
	}
	if keyless {
		var kept []dmlStep
		for _, st := range steps {
			if !st.keyed {
				kept = append(kept, st)
			}
		}
		steps = append(kept,
			dmlStep{name: "duplicate-row insert", affected: 2, q: &query.Query{Kind: query.Insert, Table: "dml",
				Rows: [][]value.Value{dmlRow(500), dmlRow(500)}}},
			dmlStep{name: "predicate delete of both copies", affected: 2, q: &query.Query{Kind: query.Delete, Table: "dml",
				Pred: eqID(500)}})
	}
	return append(steps,
		dmlStep{name: "delete everything", q: &query.Query{Kind: query.Delete, Table: "dml"}},
		dmlStep{name: "insert into empty", q: &query.Query{Kind: query.Insert, Table: "dml",
			Rows: [][]value.Value{dmlRow(1), dmlRow(2)}}})
}

func TestDifferentialDML(t *testing.T) {
	for _, tbl := range dmlTables() {
		t.Run(tbl.name, func(t *testing.T) {
			layouts := tbl.layouts
			dbs := make([]*Database, len(layouts))
			for i, lay := range layouts {
				dbs[i] = New()
				if err := dbs[i].CreateTableWithLayout(tbl.sch, lay.store, lay.spec); err != nil {
					t.Fatalf("%s: %v", lay.name, err)
				}
			}
			for _, step := range differentialSteps(tbl.sch.Visible() < tbl.sch.NumColumns()) {
				var refState []string
				var refAffected int
				var refFailed bool
				for i, lay := range layouts {
					res, err := dbs[i].Exec(step.q)
					failed := err != nil
					affected := 0
					if res != nil {
						affected = res.Affected
					}
					if step.affected > 0 && affected != step.affected {
						t.Fatalf("step %q: layout %s affected %d rows (err=%v), want %d", step.name, lay.name, affected, err, step.affected)
					}
					state := visibleState(t, dbs[i], "dml")
					if i == 0 {
						refState, refAffected, refFailed = state, affected, failed
						continue
					}
					if failed != refFailed {
						t.Fatalf("step %q: layout %s failed=%v, layout %s failed=%v (err=%v)",
							step.name, lay.name, failed, layouts[0].name, refFailed, err)
					}
					if affected != refAffected {
						t.Errorf("step %q: layout %s affected %d, layout %s affected %d",
							step.name, lay.name, affected, layouts[0].name, refAffected)
					}
					if !reflect.DeepEqual(state, refState) {
						t.Fatalf("step %q: layout %s diverged from %s: %d vs %d rows",
							step.name, lay.name, layouts[0].name, len(state), len(refState))
					}
				}
			}
		})
	}
}

// TestDifferentialDMLAggregates runs the shared sequence on every
// layout and then compares aggregate results — including an aggregate
// over a predicate matching nothing, whose empty MIN/MAX must come back
// as identically typed NULLs on every layout.
func TestDifferentialDMLAggregates(t *testing.T) {
	for _, tbl := range dmlTables() {
		t.Run(tbl.name, func(t *testing.T) { differentialAggregates(t, tbl.sch, tbl.layouts) })
	}
}

func differentialAggregates(t *testing.T, sch *schema.Table, layouts []dmlLayout) {
	dbs := make([]*Database, len(layouts))
	for i, lay := range layouts {
		dbs[i] = New()
		if err := dbs[i].CreateTableWithLayout(sch, lay.store, lay.spec); err != nil {
			t.Fatalf("%s: %v", lay.name, err)
		}
		for _, step := range differentialSteps(sch.Visible() < sch.NumColumns()) {
			dbs[i].Exec(step.q) // failures are part of the sequence
		}
	}
	aggQueries := []*query.Query{
		{Kind: query.Aggregate, Table: "dml", Aggs: []agg.Spec{
			{Func: agg.Count, Col: -1}, {Func: agg.Sum, Col: 2},
			{Func: agg.Min, Col: 3}, {Func: agg.Max, Col: 0}}},
		{Kind: query.Aggregate, Table: "dml", GroupBy: []int{1}, Aggs: []agg.Spec{
			{Func: agg.Count, Col: -1}, {Func: agg.Avg, Col: 2}, {Func: agg.Max, Col: 3}}},
		// Predicate matches nothing: MIN(note) must be a VARCHAR NULL
		// and MAX(id) a BIGINT NULL on every layout.
		{Kind: query.Aggregate, Table: "dml",
			Pred: &expr.Comparison{Col: 0, Op: expr.Gt, Val: value.NewBigint(1 << 40)},
			Aggs: []agg.Spec{
				{Func: agg.Count, Col: -1}, {Func: agg.Min, Col: 3}, {Func: agg.Max, Col: 0}}},
	}
	render := func(db *Database, q *query.Query) []string {
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("agg exec: %v", err)
		}
		out := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			s := ""
			for _, v := range row {
				s += v.Type().String() + ":" + v.String() + "|"
			}
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	for qi, q := range aggQueries {
		ref := render(dbs[0], q)
		for i := 1; i < len(dbs); i++ {
			if got := render(dbs[i], q); !reflect.DeepEqual(got, ref) {
				t.Errorf("aggregate %d: layout %s = %v, layout %s = %v",
					qi, layouts[i].name, got, layouts[0].name, ref)
			}
		}
	}
	// Spot-check the empty-aggregate typing explicitly.
	res, err := dbs[0].Exec(aggQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].Type() != value.Bigint || row[0].Int() != 0 {
		t.Errorf("empty COUNT(*) = %v (%s), want BIGINT 0", row[0], row[0].Type())
	}
	if !row[1].IsNull() || row[1].Type() != value.Varchar {
		t.Errorf("empty MIN(varchar) = %v (%s), want VARCHAR NULL", row[1], row[1].Type())
	}
	if !row[2].IsNull() || row[2].Type() != value.Bigint {
		t.Errorf("empty MAX(bigint) = %v (%s), want BIGINT NULL", row[2], row[2].Type())
	}
}

// TestMigratingUpdateRestoresOnFailure pins the horizontal data-loss
// fix: a split-column move whose re-insert collides on the primary key
// must fail without dropping the original rows (the old code deleted
// from both partitions before inserting, so the rows simply vanished).
func TestMigratingUpdateRestoresOnFailure(t *testing.T) {
	db := New()
	spec := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
		SplitCol: 1, SplitVal: value.NewInt(50),
		HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
	}}
	if err := db.CreateTableWithLayout(dmlSchema(), catalog.Partitioned, spec); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, &query.Query{Kind: query.Insert, Table: "dml",
		Rows: [][]value.Value{dmlRow(1), dmlRow(60)}}) // 1 cold, 60 hot
	before := visibleState(t, db, "dml")

	// Move row 1 to the hot partition AND assign it id 60: the insert
	// into the hot partition collides with the existing row 60.
	res, err := db.Exec(&query.Query{Kind: query.Update, Table: "dml",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
		Set:  map[int]value.Value{0: value.NewBigint(60), 1: value.NewInt(90)}})
	if err == nil {
		t.Fatalf("duplicate-PK migrating update succeeded (affected %d)", res.Affected)
	}
	after := visibleState(t, db, "dml")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failing migrating update changed state:\nbefore %v\nafter  %v", before, after)
	}
	if n, _ := db.Rows("dml"); n != 2 {
		t.Fatalf("rows = %d, want 2 (row lost by failed migrating update)", n)
	}

	// A NOT NULL violation on the split column must also leave state
	// untouched (validated before any delete).
	if _, err := db.Exec(&query.Query{Kind: query.Update, Table: "dml",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
		Set:  map[int]value.Value{1: value.Null(value.Integer)}}); err == nil {
		t.Fatal("NULL split-column update succeeded")
	}
	if got := visibleState(t, db, "dml"); !reflect.DeepEqual(before, got) {
		t.Fatal("failing NULL split-column update changed state")
	}

	// And the happy path still moves rows and reports the right count.
	res = mustExec(t, db, &query.Query{Kind: query.Update, Table: "dml",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
		Set:  map[int]value.Value{1: value.NewInt(70)}})
	if res.Affected != 1 {
		t.Fatalf("migrating update affected %d, want 1", res.Affected)
	}
	sel := mustExec(t, db, &query.Query{Kind: query.Select, Table: "dml",
		Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)}})
	if len(sel.Rows) != 1 || sel.Rows[0][1].Int() != 70 {
		t.Fatalf("moved row wrong: %v", sel.Rows)
	}
}

// TestHorizontalCrossPartitionPKUniqueness pins the table-wide PK
// invariant on horizontal layouts: a key collision sitting in the OTHER
// partition must reject both inserts and PK-changing updates (the
// per-partition stores each see only their own side).
func TestHorizontalCrossPartitionPKUniqueness(t *testing.T) {
	for _, withVertical := range []bool{false, true} {
		name := "horizontal"
		spec := &catalog.PartitionSpec{Horizontal: &catalog.HorizontalSpec{
			SplitCol: 1, SplitVal: value.NewInt(50),
			HotStore: catalog.RowStore, ColdStore: catalog.ColumnStore,
		}}
		if withVertical {
			name = "horizontal+vertical"
			spec.Vertical = &catalog.VerticalSpec{RowCols: []int{0, 1, 3}, ColCols: []int{0, 2}}
		}
		t.Run(name, func(t *testing.T) {
			db := New()
			if err := db.CreateTableWithLayout(dmlSchema(), catalog.Partitioned, spec); err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, &query.Query{Kind: query.Insert, Table: "dml",
				Rows: [][]value.Value{dmlRow(1), dmlRow(60)}}) // 1 cold, 60 hot
			// Insert a key that exists on the OTHER side than it routes to:
			// id 60 with a cold-side grp.
			dup := dmlRow(60)
			dup[1] = value.NewInt(5)
			if _, err := db.Exec(&query.Query{Kind: query.Insert, Table: "dml",
				Rows: [][]value.Value{dup}}); err == nil {
				t.Fatal("cross-partition duplicate insert accepted")
			}
			if n, _ := db.Rows("dml"); n != 2 {
				t.Fatalf("rows = %d, want 2", n)
			}
			// Update the cold row's key to collide with the hot row.
			if _, err := db.Exec(&query.Query{Kind: query.Update, Table: "dml",
				Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(1)},
				Set:  map[int]value.Value{0: value.NewBigint(60)}}); err == nil {
				t.Fatal("cross-partition duplicate PK update accepted")
			}
			// Both rows intact, keys unchanged.
			for _, id := range []int64{1, 60} {
				res := mustExec(t, db, &query.Query{Kind: query.Select, Table: "dml",
					Pred: &expr.Comparison{Col: 0, Op: expr.Eq, Val: value.NewBigint(id)}})
				if len(res.Rows) != 1 {
					t.Fatalf("id %d: %d rows after rejected statements", id, len(res.Rows))
				}
			}
		})
	}
}
