package advisor

import (
	"fmt"
	"sort"
	"strings"

	"hybridstore/internal/catalog"
	"hybridstore/internal/costmodel"
)

// renderDDL produces the statements that move data into the recommended
// layout — the paper's "respective statements to move the data into the
// recommended store" handed to the administrator (§4).
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
		out = append(out, partitionDDL(t, spec, info))
	}
	return out
}

func partitionDDL(table string, spec *catalog.PartitionSpec, info costmodel.InfoSource) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ALTER TABLE %s PARTITION BY", table)
	colName := func(c int) string {
		if ti, ok := info(table); ok && ti.Schema != nil && c < ti.Schema.NumColumns() {
			if c >= ti.Schema.Visible() {
				return "ROWID" // the hidden row key, which no statement can name
			}
			return ti.Schema.Columns[c].Name
		}
		return fmt.Sprintf("col%d", c)
	}
	if h := spec.Horizontal; h != nil {
		fmt.Fprintf(&b, " RANGE (%s) (PARTITION hot VALUES >= %s STORE %s, PARTITION historic STORE %s",
			colName(h.SplitCol), h.SplitVal, h.HotStore, h.ColdStore)
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
