package sql

import (
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
)

// execSQL parses one statement against the live engine's catalog and
// executes it — the hsql shell's round trip.
func execSQL(t *testing.T, db *engine.Database, stmt string) *engine.Result {
	t.Helper()
	resolver := func(name string) *schema.Table {
		if e := db.Catalog().Table(name); e != nil {
			return e.Schema
		}
		return nil
	}
	st, err := Parse(stmt, resolver)
	if err != nil {
		t.Fatalf("parse %q: %v", stmt, err)
	}
	if st.CreateTable != nil {
		if err := db.CreateTable(st.CreateTable, catalog.ColumnStore); err != nil {
			t.Fatalf("create: %v", err)
		}
		return nil
	}
	res, err := db.Exec(st.Query)
	if err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
	return res
}

func TestSQLEngineRoundTrip(t *testing.T) {
	db := engine.New()
	execSQL(t, db, `CREATE TABLE orders (
		o_id BIGINT NOT NULL,
		o_region INTEGER,
		o_total DOUBLE,
		o_status VARCHAR,
		o_day DATE,
		PRIMARY KEY (o_id))`)
	execSQL(t, db, `CREATE TABLE region (
		r_id INTEGER NOT NULL,
		r_name VARCHAR,
		PRIMARY KEY (r_id))`)

	execSQL(t, db, `INSERT INTO region VALUES (0, 'north'), (1, 'south'), (2, 'west')`)
	for i := 0; i < 30; i++ {
		stmt := "INSERT INTO orders VALUES (" +
			itoa(i) + ", " + itoa(i%3) + ", " + itoa(i*10) + ".5, 'OPEN', '2012-08-27')"
		execSQL(t, db, stmt)
	}

	// Aggregate with grouping.
	res := execSQL(t, db, `SELECT o_region, SUM(o_total), COUNT(*) FROM orders GROUP BY o_region`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Join with a dimension attribute group-by.
	res = execSQL(t, db, `SELECT r_name, SUM(o_total) FROM orders JOIN region ON orders.o_region = region.r_id GROUP BY r_name`)
	if len(res.Rows) != 3 {
		t.Fatalf("join groups = %d", len(res.Rows))
	}
	if !strings.Contains(res.Cols[0], "r_name") {
		t.Errorf("join col names = %v", res.Cols)
	}

	// Update through SQL, verify through SQL.
	res = execSQL(t, db, `UPDATE orders SET o_status = 'SHIPPED' WHERE o_id BETWEEN 5 AND 9`)
	if res.Affected != 5 {
		t.Fatalf("updated %d", res.Affected)
	}
	res = execSQL(t, db, `SELECT o_id FROM orders WHERE o_status = 'SHIPPED'`)
	if len(res.Rows) != 5 {
		t.Fatalf("shipped rows = %d", len(res.Rows))
	}

	// Date predicate round trip.
	res = execSQL(t, db, `SELECT COUNT(*) FROM orders WHERE o_day = '2012-08-27'`)
	if res.Rows[0][0].Int() != 30 {
		t.Fatalf("date filter count = %v", res.Rows[0][0])
	}

	// Delete and re-count.
	res = execSQL(t, db, `DELETE FROM orders WHERE o_region = 2`)
	if res.Affected != 10 {
		t.Fatalf("deleted %d", res.Affected)
	}
	res = execSQL(t, db, `SELECT COUNT(*) FROM orders`)
	if res.Rows[0][0].Int() != 20 {
		t.Fatalf("count after delete = %v", res.Rows[0][0])
	}

	// LIMIT through SQL.
	res = execSQL(t, db, `SELECT o_id, o_total FROM orders LIMIT 7`)
	if len(res.Rows) != 7 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestSQLJoinKeyTypes: an INTEGER column joins a BIGINT or DATE column by
// numeric value (it used to match nothing, silently), while a VARCHAR
// against a number is rejected when the statement is bound.
func TestSQLJoinKeyTypes(t *testing.T) {
	db := engine.New()
	execSQL(t, db, `CREATE TABLE f (id BIGINT NOT NULL, dk INTEGER, v DOUBLE, PRIMARY KEY (id))`)
	execSQL(t, db, `CREATE TABLE d (dkey BIGINT NOT NULL, label VARCHAR, PRIMARY KEY (dkey))`)
	execSQL(t, db, `INSERT INTO d VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	execSQL(t, db, `INSERT INTO f VALUES (10, 1, 1.5), (11, 1, 2.5), (12, 2, 4), (13, 9, 8)`)

	res := execSQL(t, db, `SELECT f.id, d.label FROM f JOIN d ON f.dk = d.dkey`)
	if len(res.Rows) != 3 {
		t.Fatalf("INTEGER = BIGINT join returned %d rows, want 3: %v", len(res.Rows), res.Rows)
	}
	res = execSQL(t, db, `SELECT d.label, SUM(f.v) FROM d JOIN f ON d.dkey = f.dk GROUP BY d.label`)
	if len(res.Rows) != 2 {
		t.Fatalf("BIGINT = INTEGER grouped join returned %d groups, want 2: %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if want := map[string]float64{"one": 4, "two": 4}[row[0].Varchar()]; row[1].Double() != want {
			t.Errorf("SUM(f.v) for %v = %v, want %v", row[0], row[1], want)
		}
	}

	resolver := func(name string) *schema.Table { return db.Catalog().Table(name).Schema }
	_, err := Parse(`SELECT f.id FROM f JOIN d ON f.dk = d.label`, resolver)
	if err == nil || !strings.Contains(err.Error(), "cannot join") {
		t.Errorf("INTEGER = VARCHAR join: bind error %v, want a type error", err)
	}
}

// TestSQLAggregateNeedsNumbers: SUM and AVG over a VARCHAR or DATE column
// are rejected when the statement is bound — on a row table, a column
// table and through a join — while MIN, MAX and COUNT of those columns
// still run.
func TestSQLAggregateNeedsNumbers(t *testing.T) {
	db := engine.New()
	for name, store := range map[string]catalog.StoreKind{"r": catalog.RowStore, "c": catalog.ColumnStore} {
		st, err := Parse(`CREATE TABLE `+name+` (id BIGINT NOT NULL, s VARCHAR, d DATE, PRIMARY KEY (id))`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateTable(st.CreateTable, store); err != nil {
			t.Fatal(err)
		}
		execSQL(t, db, `INSERT INTO `+name+` VALUES (1, 'b', '2012-08-27'), (2, 'a', '2012-08-28')`)
	}
	resolver := func(name string) *schema.Table { return db.Catalog().Table(name).Schema }
	for _, from := range []string{"r", "c", "r JOIN c ON r.id = c.id"} {
		col := func(c string) string {
			if strings.Contains(from, "JOIN") {
				return "c." + c
			}
			return c
		}
		for _, bad := range []string{"SUM(" + col("s") + ")", "AVG(" + col("s") + ")", "SUM(" + col("d") + ")", "AVG(" + col("d") + ")"} {
			stmt := "SELECT " + bad + " FROM " + from
			if _, err := Parse(stmt, resolver); err == nil || !strings.Contains(err.Error(), "over a") {
				t.Errorf("%s: bind error %v, want a type error", stmt, err)
			}
		}
		res := execSQL(t, db, "SELECT MIN("+col("s")+"), MAX("+col("d")+"), COUNT("+col("s")+") FROM "+from)
		if got := res.Rows[0]; got[0].Varchar() != "a" || got[1].String() != "2012-08-28" || got[2].Int() != 2 {
			t.Errorf("FROM %s: MIN, MAX, COUNT = %v", from, got)
		}
	}
}
