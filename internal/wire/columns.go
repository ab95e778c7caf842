package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hybridstore/internal/value"
)

// A result set travels column-major: the row count, then per column one
// kind byte and that column's values for every row. A column whose
// values are all non-NULL and of one type has that type as its kind and
// carries its values untagged; any other column is kindTagged and
// carries one tag byte (the type, with the high bit marking NULL) before
// each value. Values are encoded by type: DOUBLE as its 8 IEEE-754 bytes
// (little endian), INTEGER, BIGINT and DATE as signed varints, VARCHAR
// as a uvarint length and its bytes.
const (
	kindTagged byte = 0xFF
	tagNull    byte = 0x80
)

// appendColumns appends rows (each ncols wide) column-major. It stops
// and reports false as soon as dst grows past limit bytes.
func appendColumns(dst []byte, rows [][]value.Value, ncols, limit int) ([]byte, bool) {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	if len(rows) > 0 {
		// Grow once, by the first row's size (a tag byte per value
		// included) times the row count, rather than copying the frame
		// at every doubling.
		size := 0
		for _, v := range rows[0][:ncols] {
			size += 1 + valueSize(v)
		}
		if n := min(len(rows)*size, limit-len(dst)); n > 0 {
			dst = slices.Grow(dst, n)
		}
	}
	for j := 0; j < ncols; j++ {
		var ok bool
		if dst, ok = appendColumn(dst, rows, j, limit); !ok {
			return dst, false
		}
	}
	return dst, len(dst) <= limit
}

// appendColumn appends column j untagged, in the type of its first
// value, and starts over tagged at the first NULL or other type.
func appendColumn(dst []byte, rows [][]value.Value, j, limit int) ([]byte, bool) {
	if len(rows) == 0 || rows[0][j].Type() > value.Date {
		return appendTagged(dst, rows, j, limit)
	}
	mark := len(dst)
	t := rows[0][j].Type()
	dst = append(dst, byte(t))
	for _, r := range rows {
		v := r[j]
		if v.IsNull() || v.Type() != t {
			return appendTagged(dst[:mark], rows, j, limit)
		}
		if dst = appendValue(dst, v); len(dst) > limit {
			return dst, false
		}
	}
	return dst, true
}

// appendTagged appends column j with a tag byte before every value.
func appendTagged(dst []byte, rows [][]value.Value, j, limit int) ([]byte, bool) {
	dst = append(dst, kindTagged)
	for _, r := range rows {
		v := r[j]
		if v.IsNull() {
			dst = append(dst, byte(v.Type())|tagNull)
			continue
		}
		dst = append(dst, byte(v.Type()))
		if dst = appendValue(dst, v); len(dst) > limit {
			return dst, false
		}
	}
	return dst, true
}

// appendValue appends a non-NULL value's payload in its type's encoding.
func appendValue(dst []byte, v value.Value) []byte {
	switch v.Type() {
	case value.Double:
		return binary.LittleEndian.AppendUint64(dst, v.Bits())
	case value.Varchar:
		s := v.Varchar()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	default:
		return binary.AppendVarint(dst, v.Int())
	}
}

// valueSize is the number of bytes appendValue writes for v.
func valueSize(v value.Value) int {
	var buf [binary.MaxVarintLen64]byte
	switch {
	case v.IsNull():
		return 0
	case v.Type() == value.Double:
		return 8
	case v.Type() == value.Varchar:
		return binary.PutUvarint(buf[:], uint64(len(v.Varchar()))) + len(v.Varchar())
	default:
		return binary.PutVarint(buf[:], v.Int())
	}
}

// decodeColumns reads what appendColumns wrote, which must be all of b.
// Every row is a slice of one backing array, and no decoded VARCHAR
// aliases b. The claimed row count is checked against len(b) before
// anything is allocated for it: every column has a kind byte and every
// value at least one byte.
func decodeColumns(b []byte, ncols int) ([][]value.Value, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, fmt.Errorf("wire: bad row count")
	}
	if rest := uint64(len(b) - off); rest < uint64(ncols) || n > (rest-uint64(ncols))/uint64(ncols) {
		return nil, fmt.Errorf("wire: implausible row count %d (%d columns, %d bytes)", n, ncols, rest)
	}
	nrows := int(n)
	backing := make([]value.Value, nrows*ncols)
	for j := 0; j < ncols; j++ {
		if off >= len(b) {
			return nil, fmt.Errorf("wire: truncated result (column %d of %d)", j, ncols)
		}
		var err error
		if off, err = decodeColumn(b, off+1, b[off], backing, j, ncols); err != nil {
			return nil, fmt.Errorf("wire: column %d: %w", j, err)
		}
	}
	if off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes in response", len(b)-off)
	}
	rows := make([][]value.Value, nrows)
	for i := range rows {
		rows[i] = backing[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	return rows, nil
}

// decodeColumn decodes column j of the row-major backing array, whose
// rows are ncols wide, from b[off:] and returns the offset past it.
// Untagged DOUBLE and integer columns have loops of their own.
func decodeColumn(b []byte, off int, kind byte, backing []value.Value, j, ncols int) (int, error) {
	switch t := value.Type(kind); {
	case t == value.Double:
		if len(b)-off < 8*((len(backing)-j+ncols-1)/ncols) {
			return 0, fmt.Errorf("truncated DOUBLE column")
		}
		for i := j; i < len(backing); i += ncols {
			backing[i] = value.FromBits(t, binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
		return off, nil
	case t == value.Integer || t == value.Bigint || t == value.Date:
		for i := j; i < len(backing); i += ncols {
			v, n := binary.Varint(b[off:])
			if n <= 0 {
				return 0, fmt.Errorf("row %d: bad varint", i/ncols)
			}
			backing[i] = value.FromBits(t, uint64(v))
			off += n
		}
		return off, nil
	case t != value.Varchar && kind != kindTagged:
		return 0, fmt.Errorf("unknown column kind 0x%02x", kind)
	}
	for i := j; i < len(backing); i += ncols {
		t := value.Type(kind)
		if kind == kindTagged {
			if off >= len(b) {
				return 0, fmt.Errorf("truncated at row %d", i/ncols)
			}
			tag := b[off]
			off++
			if t = value.Type(tag &^ tagNull); tag&tagNull != 0 {
				backing[i] = value.Null(t)
				continue
			}
		}
		var err error
		if backing[i], off, err = decodeValue(b, off, t); err != nil {
			return 0, fmt.Errorf("row %d: %w", i/ncols, err)
		}
	}
	return off, nil
}

// decodeValue reads one non-NULL value of type t at b[off].
func decodeValue(b []byte, off int, t value.Type) (value.Value, int, error) {
	switch t {
	case value.Double:
		if len(b)-off < 8 {
			return value.Value{}, 0, fmt.Errorf("truncated DOUBLE")
		}
		return value.FromBits(t, binary.LittleEndian.Uint64(b[off:])), off + 8, nil
	case value.Varchar:
		l, n := binary.Uvarint(b[off:])
		if n <= 0 || l > uint64(len(b)-off-n) {
			return value.Value{}, 0, fmt.Errorf("bad or truncated VARCHAR")
		}
		off += n
		return value.NewVarchar(string(b[off : off+int(l)])), off + int(l), nil
	case value.Integer, value.Bigint, value.Date:
		v, n := binary.Varint(b[off:])
		if n <= 0 {
			return value.Value{}, 0, fmt.Errorf("bad varint")
		}
		return value.FromBits(t, uint64(v)), off + n, nil
	default:
		return value.Value{}, 0, fmt.Errorf("unknown value type %d", t)
	}
}
