package advisor

import (
	"fmt"
	"sort"
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// renderDDL produces the statements that move data into the recommended
// layout — the paper's "respective statements to move the data into the
// recommended store" handed to the administrator (§4). Each is an ALTER
// TABLE statement of the engine's SQL dialect. A partitioned table the
// info source has no schema for gets no statement: its columns cannot be
// named.
func (a *Advisor) renderDDL(rec *Recommendation, info costmodel.InfoSource) []string {
	var out []string
	tables := make([]string, 0, len(rec.Layout.Stores))
	for t := range rec.Layout.Stores {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		spec := rec.Layout.SpecFor(t)
		if spec == nil {
			out = append(out, fmt.Sprintf("ALTER TABLE %s MOVE TO %s STORE;", t, rec.Layout.Stores.StoreOf(t)))
			continue
		}
		if ti, ok := info(t); ok && ti.Schema != nil {
			out = append(out, partitionDDL(t, spec, ti.Schema))
		}
	}
	return out
}

func partitionDDL(table string, spec *catalog.PartitionSpec, sch *schema.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ALTER TABLE %s PARTITION BY", table)
	colName := func(c int) string {
		if c >= sch.Visible() {
			return "ROWID" // the hidden row key, as ALTER TABLE names it
		}
		return sch.Columns[c].Name
	}
	if h := spec.Horizontal; h != nil {
		fmt.Fprintf(&b, " RANGE (%s) (PARTITION hot VALUES >= %s STORE %s, PARTITION historic STORE %s",
			colName(h.SplitCol), literal(h.SplitVal), h.HotStore, h.ColdStore)
		if spec.Vertical != nil {
			b.WriteString(" ")
			writeVertical(&b, spec.Vertical, colName)
		}
		b.WriteString(")")
	} else if spec.Vertical != nil {
		b.WriteString(" ")
		writeVertical(&b, spec.Vertical, colName)
	}
	b.WriteString(";")
	return b.String()
}

// literal renders v as the SQL lexer reads it back: a VARCHAR or DATE as
// a quoted string (” for an embedded quote), a number in its shortest
// exact form.
func literal(v value.Value) string {
	if t := v.Type(); t == value.Varchar || t == value.Date {
		return "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
	}
	return v.String()
}

func writeVertical(b *strings.Builder, v *catalog.VerticalSpec, colName func(int) string) {
	names := func(cols []int) string {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = colName(c)
		}
		return strings.Join(parts, ", ")
	}
	fmt.Fprintf(b, "VERTICAL ((%s) STORE ROW, (%s) STORE COLUMN)", names(v.RowCols), names(v.ColCols))
}
