package main

import (
	"testing"

	"hybridstore/internal/catalog"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// TestStoreCommandRejectsUnknownStore: \store moves a table only to a
// store it names, row or column in any case; any other word prints the
// usage line and leaves the table where it is.
func TestStoreCommandRejectsUnknownStore(t *testing.T) {
	db := engine.New()
	sch := schema.MustNew("t", []schema.Column{{Name: "id", Type: value.Bigint}}, "id")
	if err := db.CreateTable(sch, catalog.ColumnStore); err != nil {
		t.Fatal(err)
	}
	s := &session{db: db}
	for _, line := range []string{`\store t colum`, `\store t rows`, `\store t`, `\store t row column`} {
		if !s.command(line) {
			t.Fatalf("%q ended the session", line)
		}
		if got := db.Catalog().Table("t").Store; got != catalog.ColumnStore {
			t.Fatalf("%q moved t to the %s store", line, got)
		}
	}
	s.command(`\store t ROW`)
	if got := db.Catalog().Table("t").Store; got != catalog.RowStore {
		t.Fatalf(`\store t ROW left t in the %s store`, got)
	}
	s.command(`\store t Column`)
	if got := db.Catalog().Table("t").Store; got != catalog.ColumnStore {
		t.Fatalf(`\store t Column left t in the %s store`, got)
	}
}
