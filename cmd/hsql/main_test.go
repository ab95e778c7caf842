package main

import (
	"strings"
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
)

// TestEmbeddedShellDispatch drives the embedded shell's loop: statements
// run through the server's dispatcher, so COPY takes the bulk-ingest path
// (counted by IngestedRows) and ALTER TABLE moves the table, a statement
// naming no store moves nothing, and \quit ends the session before the
// lines after it.
func TestEmbeddedShellDispatch(t *testing.T) {
	db := engine.New()
	s := &session{db: db}
	repl(strings.NewReader(`CREATE TABLE t (id BIGINT, v DOUBLE, PRIMARY KEY (id));
COPY t FROM VALUES (1, 1.5), (2, 2.5),
  (3, 3.5);
ALTER TABLE t MOVE TO COLUMN STORE;
ALTER TABLE t MOVE TO COLUM STORE;
ALTER TABLE t MOVE TO ROWS STORE;
\quit
ALTER TABLE t MOVE TO ROW STORE;
`), s.exec, s.command)
	if got := db.IngestedRows(); got != 3 {
		t.Errorf("COPY ingested %d rows through the bulk path, want 3", got)
	}
	if n, _ := db.Rows("t"); n != 3 {
		t.Errorf("t holds %d rows, want 3", n)
	}
	if got := db.Catalog().Table("t").Store; got != catalog.ColumnStore {
		t.Errorf("t is in the %s store, want COLUMN", got)
	}
}
