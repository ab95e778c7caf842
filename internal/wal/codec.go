// Binary encoding shared by WAL records and engine snapshots. The format
// is a flat byte stream of uvarint-framed primitives: no reflection, no
// per-field tags, so encoding a DML record costs little more than copying
// its payload. Decoders carry a sticky error — callers chain reads and
// check Err once — because a torn WAL tail must surface as a clean "stop
// here", not a panic.

package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/catalog"
	"hybridstore/internal/schema"
	"hybridstore/internal/value"
)

// Encoder appends primitives to a growing byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// AppendEncoder returns an encoder that appends to buf.
func AppendEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset clears the buffer for reuse, keeping its capacity. Snapshot
// writers encode and flush one table at a time so peak memory is
// bounded by the largest table, not the whole database.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Len returns the current encoded length.
func (e *Encoder) Len() int { return len(e.buf) }

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Ints appends a length-prefixed []int.
func (e *Encoder) Ints(xs []int) {
	e.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.Varint(int64(x))
	}
}

// Value appends a typed scalar. Layout: one tag byte (type, with the high
// bit marking NULL), then the payload — nothing for NULL, a
// length-prefixed string for VARCHAR, raw IEEE-754 bits for DOUBLE, and a
// signed varint for the integer-backed types.
func (e *Encoder) Value(v value.Value) {
	tag := byte(v.Type())
	if v.IsNull() {
		e.Byte(tag | 0x80)
		return
	}
	e.Byte(tag)
	switch v.Type() {
	case value.Varchar:
		e.String(v.Varchar())
	case value.Double:
		e.Uvarint(math.Float64bits(v.Double()))
	default:
		e.Varint(v.Int())
	}
}

// Row appends the values of a row (arity is framed by the caller).
func (e *Encoder) Row(row []value.Value) {
	for _, v := range row {
		e.Value(v)
	}
}

// Rows appends a length-prefixed batch of rows of the given width.
func (e *Encoder) Rows(rows [][]value.Value) {
	e.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		e.Row(r)
	}
}

// Schema appends a table schema: name, columns and primary key.
func (e *Encoder) Schema(sch *schema.Table) {
	e.String(sch.Name)
	e.Uvarint(uint64(len(sch.Columns)))
	for _, c := range sch.Columns {
		e.String(c.Name)
		e.Byte(byte(c.Type))
		if c.Nullable {
			e.Byte(1)
		} else {
			e.Byte(0)
		}
	}
	e.Ints(sch.PrimaryKey)
}

// Spec appends an optional partitioning annotation. A leading flags byte
// records which halves are present.
func (e *Encoder) Spec(spec *catalog.PartitionSpec) {
	if spec == nil {
		e.Byte(0)
		return
	}
	var flags byte
	if spec.Horizontal != nil {
		flags |= 1
	}
	if spec.Vertical != nil {
		flags |= 2
	}
	e.Byte(flags)
	if h := spec.Horizontal; h != nil {
		e.Varint(int64(h.SplitCol))
		e.Value(h.SplitVal)
		e.Byte(byte(h.HotStore))
		e.Byte(byte(h.ColdStore))
	}
	if v := spec.Vertical; v != nil {
		e.Ints(v.RowCols)
		e.Ints(v.ColCols)
	}
}

// Decoder reads primitives from a byte buffer with a sticky error: after
// the first failure every subsequent read returns a zero value, and Err
// reports the cause.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("wal: truncated buffer (byte at %d)", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("wal: bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("wal: bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a varint-encoded int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(d.Remaining()) < n {
		d.fail("wal: truncated string (%d of %d bytes)", d.Remaining(), n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(d.Remaining()) { // each element takes >= 1 byte
		d.fail("wal: implausible int-slice length %d", n)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Value reads a typed scalar.
func (d *Decoder) Value() value.Value {
	tag := d.Byte()
	if d.err != nil {
		return value.Value{}
	}
	typ := value.Type(tag &^ 0x80)
	if tag&0x80 != 0 {
		return value.Null(typ)
	}
	switch typ {
	case value.Integer:
		return value.NewInt(d.Varint())
	case value.Bigint:
		return value.NewBigint(d.Varint())
	case value.Double:
		return value.NewDouble(math.Float64frombits(d.Uvarint()))
	case value.Varchar:
		return value.NewVarchar(d.String())
	case value.Date:
		return value.NewDate(d.Varint())
	default:
		d.fail("wal: unknown value type tag %d", tag)
		return value.Value{}
	}
}

// Row reads width values.
func (d *Decoder) Row(width int) []value.Value {
	row := make([]value.Value, width)
	for i := range row {
		row[i] = d.Value()
	}
	if d.err != nil {
		return nil
	}
	return row
}

// Rows reads a length-prefixed batch of rows of the given width. The
// claimed count only seeds a bounded capacity — memory beyond it is
// committed row by row as bytes actually decode, so a corrupt or
// hostile count cannot amplify into a huge up-front allocation (the
// wire protocol feeds this decoder untrusted frames).
func (d *Decoder) Rows(width int) [][]value.Value {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if width < 1 || n > uint64(d.Remaining()/width) { // each value takes >= 1 byte
		d.fail("wal: implausible row count %d (width %d)", n, width)
		return nil
	}
	const rowAllocBatch = 4096
	rows := make([][]value.Value, 0, min(n, rowAllocBatch))
	for i := uint64(0); i < n; i++ {
		row := d.Row(width)
		if d.err != nil {
			return nil
		}
		rows = append(rows, row)
	}
	return rows
}

// Schema reads a table schema.
func (d *Decoder) Schema() *schema.Table {
	name := d.String()
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 || n > uint64(d.Remaining()) {
		d.fail("wal: implausible column count %d", n)
		return nil
	}
	cols := make([]schema.Column, n)
	for i := range cols {
		cols[i].Name = d.String()
		cols[i].Type = value.Type(d.Byte())
		cols[i].Nullable = d.Byte() != 0
	}
	pk := d.Ints()
	if d.err != nil {
		return nil
	}
	sch, err := schema.Rebuild(name, cols, pk)
	if err != nil {
		d.fail("wal: bad schema: %v", err)
		return nil
	}
	return sch
}

// Spec reads an optional partitioning annotation.
func (d *Decoder) Spec() *catalog.PartitionSpec {
	flags := d.Byte()
	if d.err != nil || flags == 0 {
		return nil
	}
	if flags&^3 != 0 {
		d.fail("wal: unknown partitioning flags %#x", flags)
		return nil
	}
	spec := &catalog.PartitionSpec{}
	if flags&1 != 0 {
		h := &catalog.HorizontalSpec{}
		h.SplitCol = d.Int()
		h.SplitVal = d.Value()
		h.HotStore = catalog.StoreKind(d.Byte())
		h.ColdStore = catalog.StoreKind(d.Byte())
		spec.Horizontal = h
	}
	if flags&2 != 0 {
		spec.Vertical = &catalog.VerticalSpec{RowCols: d.Ints(), ColCols: d.Ints()}
	}
	if d.err != nil {
		return nil
	}
	return spec
}
