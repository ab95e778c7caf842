package server

import (
	"context"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/client"
	"hybridstore/internal/engine"
)

// TestAlterTableOverWire: a remote client moves a table with the ALTER
// TABLE statements the advisor prints, in any case; a statement naming no
// store is a parse error that leaves the table where it was; and a read
// cached before a move replans after it and returns the same rows.
func TestAlterTableOverWire(t *testing.T) {
	db := engine.New()
	srv := startServer(t, db, Config{})
	defer shutdown(t, srv)
	ctx := context.Background()
	c, err := client.Dial(srv.Addr().String(), client.Options{Name: "alter"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exec := func(text string) {
		t.Helper()
		if _, err := c.Exec(ctx, text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	layout := func() (catalog.StoreKind, string) {
		e := db.Catalog().Table("t")
		return e.Store, e.Partitioning.String()
	}
	exec("CREATE TABLE t (id BIGINT, grp INTEGER, v DOUBLE, PRIMARY KEY (id))")
	exec("INSERT INTO t VALUES (1, 1, 1.5), (2, 2, 2.5), (3, 1, 3.5), (4, 2, 4.5)")
	const read = "SELECT grp, SUM(v) FROM t GROUP BY grp ORDER BY grp"
	before, err := c.Query(ctx, read)
	if err != nil {
		t.Fatal(err)
	}

	exec("ALTER TABLE t MOVE TO COLUMN STORE;")
	if store, _ := layout(); store != catalog.ColumnStore {
		t.Fatalf("MOVE TO COLUMN STORE left t in the %s store", store)
	}
	for _, bad := range []string{
		"ALTER TABLE t MOVE TO COLUM STORE",
		"ALTER TABLE t MOVE TO ROWS STORE",
		"ALTER TABLE t MOVE TO STORE",
		"ALTER TABLE t MOVE TO ROW COLUMN STORE",
		"ALTER TABLE t PARTITION BY VERTICAL ((id, grp) STORE ROW, (v) STORE COLUMN)", // the key in one partition only
	} {
		if _, err := c.Exec(ctx, bad); err == nil {
			t.Errorf("%s: accepted", bad)
		}
		if store, _ := layout(); store != catalog.ColumnStore {
			t.Fatalf("%s moved t to the %s store", bad, store)
		}
	}
	hits, misses, _ := srv.PlanCacheStats()
	exec("alter table t partition by range (id) (partition hot values >= 3 store row, partition historic store column)")
	if store, spec := layout(); store != catalog.Partitioned || spec != "HORIZONTAL(col0 >= 3 -> ROW, rest -> COLUMN)" {
		t.Fatalf("PARTITION BY RANGE left t %s %s", store, spec)
	}
	after, err := c.Query(ctx, read)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, _ := srv.PlanCacheStats(); h != hits || m != misses+1 {
		t.Errorf("the read after the move: %d plan cache hits, %d misses; want %d, %d", h, m, hits, misses+1)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("after the move: %v, before: %v", after.Rows, before.Rows)
	}
	for i := range before.Rows {
		if after.Rows[i][0].String() != before.Rows[i][0].String() || after.Rows[i][1].String() != before.Rows[i][1].String() {
			t.Fatalf("after the move: %v, before: %v", after.Rows, before.Rows)
		}
	}
}
