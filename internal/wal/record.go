package wal

import (
	"fmt"

	"hybridstore/internal/catalog"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// RecordKind identifies a logical log record. The numbers are the on-disk
// format: a kind keeps its number for good, and a retired one is not
// reused.
type RecordKind uint8

const (
	// RecCreateTable registers a table (schema, store, partitioning).
	RecCreateTable RecordKind = iota + 1
	// RecDropTable removes a table.
	RecDropTable
	// RecCreateIndex declares a secondary index on a column.
	RecCreateIndex
	// RecSetLayout moves a table to a new placement. A completed
	// MigrateLayout logs it after its swap: a migration is durable only
	// once this record is on disk, so a crash mid-migration replays as if
	// the migration never started.
	RecSetLayout
	// RecInsert appends rows (already coerced to the schema's types).
	RecInsert
	// Kinds 6 and 7 were UPDATE and DELETE by predicate, which tables
	// without a primary key wrote before every table had one. The decoder
	// refuses them.

	// RecTxnCommit is one committed transaction's atomic effect: for
	// each touched table, the primary keys whose rows the transaction
	// superseded or deleted, and the full images of the rows it left
	// live. The record is physical (net row images, not the statements
	// that produced them) so replay order only needs to respect commit
	// order — which the engine guarantees equals log order. A crash
	// before the record is durable loses the whole transaction; there
	// is no partial replay.
	RecTxnCommit RecordKind = 8
	// RecCopy appends one bulk-ingest batch (already coerced rows). It
	// is encoded exactly like RecInsert but kept distinct so recovery
	// and tooling can tell streamed batches from single statements; one
	// record covers a whole client frame, making the batch atomic under
	// crash recovery — a torn tail replays every row of the batch or
	// none of them.
	RecCopy RecordKind = 9
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecCreateTable:
		return "CREATE-TABLE"
	case RecDropTable:
		return "DROP-TABLE"
	case RecCreateIndex:
		return "CREATE-INDEX"
	case RecSetLayout:
		return "SET-LAYOUT"
	case RecInsert:
		return "INSERT"
	case RecTxnCommit:
		return "TXN-COMMIT"
	case RecCopy:
		return "COPY"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one logical WAL entry. Only the fields relevant to Kind are
// populated; the encoding writes exactly those.
type Record struct {
	Kind  RecordKind
	Table string

	// DDL payload.
	Schema *schema.Table          // RecCreateTable
	Store  catalog.StoreKind      // RecCreateTable, RecSetLayout
	Spec   *catalog.PartitionSpec // RecCreateTable, RecSetLayout
	Col    int                    // RecCreateIndex

	// DML payload. Width is the table arity, needed to frame Rows.
	Width int
	Rows  [][]value.Value // RecInsert, RecCopy

	// Txn is the per-table payload of a RecTxnCommit.
	Txn []TxnTable
}

// TxnTable is one table's slice of a committed transaction: delete the
// rows carrying DelPKs, then insert Rows. DelPKs lists every primary key
// the transaction wrote (including keys of rows it re-inserts), so
// replay is delete-then-insert without needing the pre-state.
type TxnTable struct {
	Name    string
	Width   int // table arity, frames Rows
	PKWidth int // primary-key arity, frames DelPKs
	DelPKs  [][]value.Value
	Rows    [][]value.Value
}

// encode appends the record payload to the encoder.
func (r *Record) encode(e *Encoder) {
	e.Byte(byte(r.Kind))
	e.String(r.Table)
	switch r.Kind {
	case RecCreateTable:
		e.Schema(r.Schema)
		e.Byte(byte(r.Store))
		e.Spec(r.Spec)
	case RecDropTable:
		// Table name only.
	case RecCreateIndex:
		e.Varint(int64(r.Col))
	case RecSetLayout:
		e.Byte(byte(r.Store))
		e.Spec(r.Spec)
	case RecInsert, RecCopy:
		e.Varint(int64(r.Width))
		e.Rows(r.Rows)
	case RecTxnCommit:
		e.Uvarint(uint64(len(r.Txn)))
		for _, tt := range r.Txn {
			e.String(tt.Name)
			e.Varint(int64(tt.Width))
			e.Varint(int64(tt.PKWidth))
			e.Rows(tt.DelPKs)
			e.Rows(tt.Rows)
		}
	}
}

// decodeRecord reads one record payload.
func decodeRecord(d *Decoder) (*Record, error) {
	r := &Record{Kind: RecordKind(d.Byte()), Table: d.String()}
	switch r.Kind {
	case RecCreateTable:
		r.Schema = d.Schema()
		r.Store = catalog.StoreKind(d.Byte())
		r.Spec = d.Spec()
	case RecDropTable:
	case RecCreateIndex:
		r.Col = d.Int()
	case RecSetLayout:
		r.Store = catalog.StoreKind(d.Byte())
		r.Spec = d.Spec()
	case RecInsert, RecCopy:
		r.Width = d.Int()
		if d.Err() == nil && r.Width <= 0 {
			return nil, fmt.Errorf("wal: implausible insert width %d", r.Width)
		}
		r.Rows = d.Rows(r.Width)
	case 6, 7:
		return nil, fmt.Errorf("wal: record kind %d, an UPDATE/DELETE by predicate on a table without a primary key, "+
			"comes from a build before every table had a key; open and close the data directory with that build first", r.Kind)
	case RecTxnCommit:
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(d.Remaining()) {
			return nil, fmt.Errorf("wal: implausible txn table count %d", n)
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			tt := TxnTable{Name: d.String(), Width: d.Int(), PKWidth: d.Int()}
			if d.Err() == nil && tt.PKWidth == 0 {
				return nil, fmt.Errorf("wal: txn table %q has no primary key (pk width 0): a transaction on a keyless table "+
					"from a build before every table had a key; open and close the data directory with that build first", tt.Name)
			}
			if d.Err() == nil && (tt.Width <= 0 || tt.PKWidth < 0 || tt.PKWidth > tt.Width) {
				return nil, fmt.Errorf("wal: implausible txn table framing (width %d, pk %d)", tt.Width, tt.PKWidth)
			}
			tt.DelPKs = d.Rows(tt.PKWidth)
			tt.Rows = d.Rows(tt.Width)
			r.Txn = append(r.Txn, tt)
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
