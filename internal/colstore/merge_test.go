package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hybridstore/internal/bitset"
	"hybridstore/internal/compress"
	"hybridstore/internal/pkindex"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// oracleMerge is the merge the column store had before dictionaries were
// merged as dictionaries, kept as the reference: every live value is
// materialized, the distinct ones sorted, each row's code found again by
// binary search over the boxed values and the PK index rebuilt by decoding
// every row's key. Only the tie among values that compare equal (-0.0 and
// 0.0) is pinned down, by bit pattern.
func oracleMerge(t *Table) {
	total := t.totalRows()
	if t.deltaRows == 0 && t.live == total {
		return
	}
	liveRids := t.liveSet.AppendSet(make([]int32, 0, t.live), 0, total)
	less := func(a, b value.Value) bool {
		if c := value.Compare(a, b); c != 0 {
			return c < 0
		}
		return int64(a.Bits()) < int64(b.Bits())
	}
	for i := range t.cols {
		c := &t.cols[i]
		vals := make([]value.Value, len(liveRids))
		var nulls []bool
		var distinct []value.Value
		seen := map[string]bool{}
		for k, rid := range liveRids {
			v := c.valueAt(int(rid), t.mainRows)
			vals[k] = v
			if v.IsNull() {
				if nulls == nil {
					nulls = make([]bool, len(liveRids))
				}
				nulls[k] = true
			} else if !seen[v.Key()] {
				seen[v.Key()] = true
				distinct = append(distinct, v)
			}
		}
		sort.Slice(distinct, func(a, b int) bool { return less(distinct[a], distinct[b]) })
		codes := make([]uint32, len(vals))
		for k, v := range vals {
			if !v.IsNull() {
				codes[k] = uint32(sort.Search(len(distinct), func(j int) bool { return !less(distinct[j], v) }))
			}
		}
		c.mainDict = compress.NewDict(c.typ, distinct)
		c.mainCodes = compress.Encode(codes, len(distinct))
		c.mainNulls = nulls
		c.mainZones = buildZones(codes, nulls)
		c.deltaDict = compress.NewUDict(c.typ)
		c.deltaCodes, c.deltaNulls = nil, nil
	}
	t.mainRows, t.deltaRows, t.live = len(liveRids), 0, len(liveRids)
	t.liveSet = bitset.New(t.mainRows)
	t.liveSet.FillOnes(t.mainRows)
	t.pkIndex = &pkindex.Index{}
	for rid := 0; rid < t.mainRows; rid++ {
		t.pkIndex.Add(value.HashRow(t.sch.PKValues(t.Get(rid))), int32(rid))
	}
}

func mergeSchema() *schema.Table {
	return schema.MustNew("m", []schema.Column{
		{Name: "id", Type: value.Bigint},
		{Name: "i", Type: value.Integer, Nullable: true},
		{Name: "b", Type: value.Bigint, Nullable: true},
		{Name: "d", Type: value.Double, Nullable: true},
		{Name: "s", Type: value.Varchar, Nullable: true},
		{Name: "t", Type: value.Date, Nullable: true},
		{Name: "run", Type: value.Integer}, // long runs: run-length coded
		{Name: "seq", Type: value.Date},    // no runs, but close to the key: frame-of-reference coded
	}, "id")
}

// mergeValue draws a value for column col: mostly from a small pool, so
// main and delta share values and rows share dictionary entries, sometimes
// NULL, an extreme or a value no other row is likely to hold.
func mergeValue(rng *rand.Rand, col int, typ value.Type) value.Value {
	switch r := rng.Intn(20); {
	case r == 0:
		return value.Null(typ)
	case r == 1:
		switch typ {
		case value.Double:
			return []value.Value{value.NewDouble(math.NaN()), value.NewDouble(math.Copysign(0, -1)), value.NewDouble(0)}[rng.Intn(3)]
		case value.Varchar:
			return []value.Value{value.NewVarchar(""), value.NewVarchar(strings.Repeat("k", 64<<10))}[rng.Intn(2)]
		default:
			return value.FromBits(typ, 1<<63) // MinInt64
		}
	case r == 2:
		if typ == value.Varchar {
			return value.NewVarchar(fmt.Sprintf("u%d", rng.Int63()))
		}
		if typ == value.Double {
			return value.NewDouble(rng.NormFloat64())
		}
		return value.FromBits(typ, uint64(rng.Int63n(1<<40)))
	}
	n := rng.Intn(30 * col)
	switch typ {
	case value.Double:
		return value.NewDouble(float64(n) / 8)
	case value.Varchar:
		return value.NewVarchar(fmt.Sprintf("v%03d", n))
	default:
		return value.FromBits(typ, uint64(int64(n-15)))
	}
}

func mergeRow(rng *rand.Rand, sch *schema.Table, id int64) []value.Value {
	row := []value.Value{value.NewBigint(id)}
	for col := 1; col <= 5; col++ {
		row = append(row, mergeValue(rng, col, sch.Columns[col].Type))
	}
	return append(row, value.NewInt(id/700), value.NewDate(id/128*2+id%2))
}

// TestMergeDifferential runs one random interleaving of inserts, upserts,
// deletes by key and merges on two tables that differ only
// in the merge — Merge on one, oracleMerge on the other — and requires
// them to be indistinguishable after every merge: rows, sizes, rates,
// dictionaries, code-vector kinds, zone maps and PK lookups of every key
// ever inserted.
func TestMergeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sch := mergeSchema()
		got, want := New(sch), New(sch)
		got.AutoMerge, want.AutoMerge = false, false
		nextID := int64(0)
		both := func(op func(tb *Table) (int, error)) {
			t.Helper()
			n1, err1 := op(got)
			n2, err2 := op(want)
			if n1 != n2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d: the tables diverged outside the merge: %d, %v vs %d, %v", seed, n1, err1, n2, err2)
			}
		}
		insert := func(n int) {
			rows := make([][]value.Value, n)
			for i := range rows {
				rows[i] = mergeRow(rng, sch, nextID)
				nextID++
			}
			both(func(tb *Table) (int, error) { return n, tb.Insert(rows) })
		}
		// byKey calls fn with the key of each id in [lo, lo+n], as a
		// transaction's fold names the rows it writes.
		byKey := func(lo, n int64, fn func(key []value.Value)) {
			for id := lo; id <= lo+n; id++ {
				fn([]value.Value{value.NewBigint(id)})
			}
		}
		insert(2500)
		kinds := map[string]bool{}
		for step := 0; step < 60; step++ {
			r := rng.Intn(10)
			if step == 0 {
				r = 9 // merge the load as it came: later, migrated rows at the tail defeat frame-of-reference
			}
			switch {
			case r < 3:
				insert(1 + rng.Intn(300))
			case r < 6: // the new image of every live row in the range
				col := 1 + rng.Intn(5)
				v := mergeValue(rng, col, sch.Columns[col].Type)
				lo, n := rng.Int63n(nextID), rng.Int63n(40)
				both(func(tb *Table) (int, error) {
					var rows [][]value.Value
					byKey(lo, n, func(key []value.Value) {
						if rid, ok := tb.LookupPK(key); ok {
							row := tb.Get(rid)
							row[col] = v
							rows = append(rows, row)
						}
					})
					return len(rows), tb.Upsert(rows)
				})
			case r < 8:
				lo, n := rng.Int63n(nextID), rng.Int63n(40)
				both(func(tb *Table) (int, error) {
					deleted := 0
					byKey(lo, n, func(key []value.Value) {
						if tb.DeletePK(key) {
							deleted++
						}
					})
					return deleted, nil
				})
			default:
				got.Merge()
				oracleMerge(want)
				assertSameTable(t, seed, got, want, nextID)
				for i := range got.cols {
					kinds[fmt.Sprintf("%T", got.cols[i].mainCodes)] = true
				}
			}
		}
		if len(kinds) != 3 {
			t.Errorf("seed %d: the merges produced code vectors %v, want packed, run-length and frame-of-reference", seed, kinds)
		}
	}
}

func assertSameTable(t *testing.T, seed int64, got, want *Table, keys int64) {
	t.Helper()
	g, w := scanRows(got, nil, nil), scanRows(want, nil, nil)
	if len(g) != len(w) {
		t.Fatalf("seed %d: Scan returns %d rows, the oracle %d", seed, len(g), len(w))
	}
	for k := range g {
		for c, v := range g[k].vals {
			o := w[k].vals[c]
			if g[k].rid != w[k].rid || v.IsNull() != o.IsNull() || v.Bits() != o.Bits() || v.Varchar() != o.Varchar() {
				t.Fatalf("seed %d: row %d of the scan is rid %d %v, the oracle has rid %d %v", seed, k, g[k].rid, g[k].vals, w[k].rid, w[k].vals)
			}
		}
	}
	if got.MemoryBytes() != want.MemoryBytes() || got.Rows() != want.Rows() || got.DeltaRows() != 0 {
		t.Errorf("seed %d: %d rows in %d bytes, %d in the delta; the oracle has %d rows in %d bytes",
			seed, got.Rows(), got.MemoryBytes(), got.DeltaRows(), want.Rows(), want.MemoryBytes())
	}
	for i := range got.cols {
		g, w := &got.cols[i], &want.cols[i]
		name := got.sch.Columns[i].Name
		if got.CompressionRate(i) != want.CompressionRate(i) || distinct(got, i) != distinct(want, i) {
			t.Errorf("seed %d column %s: rate %v over %d values, the oracle has %v over %d", seed, name,
				got.CompressionRate(i), distinct(got, i), want.CompressionRate(i), distinct(want, i))
		}
		if g.mainDict.Len() != w.mainDict.Len() {
			t.Fatalf("seed %d column %s: %d dictionary entries, the oracle has %d", seed, name, g.mainDict.Len(), w.mainDict.Len())
		}
		for code := 0; code < g.mainDict.Len(); code++ {
			a, b := g.mainDict.Value(uint32(code)), w.mainDict.Value(uint32(code))
			if a.Bits() != b.Bits() || a.Varchar() != b.Varchar() {
				t.Fatalf("seed %d column %s: code %d is %v, the oracle has %v", seed, name, code, a, b)
			}
		}
		if !reflect.DeepEqual(g.mainCodes, w.mainCodes) {
			t.Errorf("seed %d column %s: code vector %T differs from the oracle's %T", seed, name, g.mainCodes, w.mainCodes)
		}
		if !reflect.DeepEqual(g.mainZones, w.mainZones) || !reflect.DeepEqual(g.mainNulls, w.mainNulls) {
			t.Errorf("seed %d column %s: zone maps or NULL flags differ from the oracle's", seed, name)
		}
	}
	for id := int64(0); id < keys; id++ {
		key := []value.Value{value.NewBigint(id)}
		g, gok := got.LookupPK(key)
		w, wok := want.LookupPK(key)
		if g != w || gok != wok {
			t.Fatalf("seed %d: LookupPK(%d) = %d, %v; the oracle has %d, %v", seed, id, g, gok, w, wok)
		}
	}
}

// TestMergeSizesDictionariesExactly: a merged dictionary's storage is as
// long as the dictionary, whatever the delta held — also after the table's
// live rows were reloaded the way a snapshot load does it: one Upsert, then
// Merge.
func TestMergeSizesDictionariesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sch := mergeSchema()
	tb := New(sch)
	var rows [][]value.Value
	for id := int64(0); id < 6000; id++ {
		rows = append(rows, mergeRow(rng, sch, id))
	}
	if err := tb.Insert(rows); err != nil { // merges on the way
		t.Fatal(err)
	}
	for id := int64(0); id < 500; id++ {
		tb.DeletePK([]value.Value{value.NewBigint(id)})
	}
	tb.Merge()
	var live [][]value.Value
	for rid := 0; rid < tb.totalRows(); rid++ {
		if tb.liveSet.Get(rid) {
			live = append(live, tb.Get(rid))
		}
	}
	re := New(sch)
	if err := re.Upsert(live); err != nil {
		t.Fatal(err)
	}
	re.Merge()
	for name, x := range map[string]*Table{"merged": tb, "reloaded": re} {
		if x.Rows() != 5500 || x.DeltaRows() != 0 {
			t.Fatalf("%s table: %d rows, %d in the delta", name, x.Rows(), x.DeltaRows())
		}
		for i := range x.cols {
			d := x.cols[i].mainDict
			exact := 8 * d.Len() // ResidentBytes counts capacity: equal means cap == Len
			if x.cols[i].typ == value.Varchar {
				exact = 16*d.Len() + d.Bytes()
			}
			if d.ResidentBytes() != exact {
				t.Errorf("%s table, column %s: dictionary of %d values occupies %d bytes, exactly sized it would be %d",
					name, sch.Columns[i].Name, d.Len(), d.ResidentBytes(), exact)
			}
		}
	}
}
