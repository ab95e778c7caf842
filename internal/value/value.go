// Package value defines the typed scalar values stored and processed by the
// hybrid-store engine. A Value is a small, immutable union of the supported
// SQL data types; the storage layers keep values in columnar dictionaries or
// row arenas, and the execution engine compares, hashes and aggregates them.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the data types supported by the engine. The set mirrors
// the types the paper's cost model distinguishes (c_dataType is a per-type
// constant): integers, doubles, variable-length strings and dates.
type Type uint8

const (
	// Integer is a 32-bit signed integer (stored widened to int64).
	Integer Type = iota
	// Bigint is a 64-bit signed integer.
	Bigint
	// Double is a 64-bit IEEE-754 floating point number.
	Double
	// Varchar is a variable-length string.
	Varchar
	// Date is a calendar date, stored as days since 1970-01-01.
	Date
)

// Types lists all supported types, in declaration order.
var Types = []Type{Integer, Bigint, Double, Varchar, Date}

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Integer:
		return "INTEGER"
	case Bigint:
		return "BIGINT"
	case Double:
		return "DOUBLE"
	case Varchar:
		return "VARCHAR"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts a SQL type name into a Type. It accepts the names
// produced by Type.String plus common aliases (INT, FLOAT, STRING, TEXT).
func ParseType(s string) (Type, error) {
	switch s {
	case "INTEGER", "INT":
		return Integer, nil
	case "BIGINT":
		return Bigint, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL":
		return Double, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR":
		return Varchar, nil
	case "DATE":
		return Date, nil
	default:
		return 0, fmt.Errorf("value: unknown type %q", s)
	}
}

// Numeric reports whether values of the type can be aggregated with
// SUM/AVG.
func (t Type) Numeric() bool {
	switch t {
	case Integer, Bigint, Double:
		return true
	default:
		return false
	}
}

// JoinComparable reports whether an equi-join can compare keys of types a
// and b: the same type, or two whole-number types (INTEGER, BIGINT, DATE —
// a day count), which compare by numeric value.
func JoinComparable(a, b Type) bool {
	whole := func(t Type) bool { return t == Integer || t == Bigint || t == Date }
	return a == b || whole(a) && whole(b)
}

// Value is a typed scalar. The zero Value is a NULL Integer.
type Value struct {
	str  string
	num  int64
	typ  Type
	null bool
}

// NewInt returns an Integer value.
func NewInt(v int64) Value { return Value{typ: Integer, num: v} }

// NewBigint returns a Bigint value.
func NewBigint(v int64) Value { return Value{typ: Bigint, num: v} }

// NewDouble returns a Double value.
func NewDouble(v float64) Value { return Value{typ: Double, num: int64(math.Float64bits(v))} }

// NewVarchar returns a Varchar value.
func NewVarchar(s string) Value { return Value{typ: Varchar, str: s} }

// NewDate returns a Date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{typ: Date, num: days} }

// epochDay is the reference for DateFromTime / ParseDate conversions.
var epochDay = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// DateFromTime returns a Date value for the calendar day of t (UTC).
func DateFromTime(t time.Time) Value {
	days := t.UTC().Truncate(24*time.Hour).Sub(epochDay) / (24 * time.Hour)
	return NewDate(int64(days))
}

// ParseDate parses a YYYY-MM-DD string into a Date value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, fmt.Errorf("value: bad date %q: %w", s, err)
	}
	return DateFromTime(t), nil
}

// Null returns a NULL value of the given type.
func Null(t Type) Value { return Value{typ: t, null: true} }

// FromBits rebuilds a non-NULL value of a fixed-width type from the eight
// bytes Bits returned for it: the storage form of the row store's slots.
func FromBits(t Type, bits uint64) Value { return Value{typ: t, num: int64(bits)} }

// Bits returns the fixed-width payload of a non-VARCHAR value: the integer
// or day count as is, a DOUBLE as its IEEE-754 bit pattern.
func (v Value) Bits() uint64 { return uint64(v.num) }

// Type returns the value's data type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// Int returns the integer payload of an Integer, Bigint or Date value.
func (v Value) Int() int64 { return v.num }

// Double returns the floating-point payload of a Double value.
func (v Value) Double() float64 { return math.Float64frombits(uint64(v.num)) }

// Varchar returns the string payload of a Varchar value.
func (v Value) Varchar() string { return v.str }

// Float returns the value widened to float64 for aggregation. NULLs and
// non-numeric types yield 0.
func (v Value) Float() float64 {
	if v.null {
		return 0
	}
	switch v.typ {
	case Integer, Bigint, Date:
		return float64(v.num)
	case Double:
		return v.Double()
	default:
		return 0
	}
}

// String formats the value for display.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	switch v.typ {
	case Integer, Bigint:
		return strconv.FormatInt(v.num, 10)
	case Double:
		return strconv.FormatFloat(v.Double(), 'g', -1, 64)
	case Varchar:
		return v.str
	case Date:
		return epochDay.AddDate(0, 0, int(v.num)).Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(%d)", v.num)
	}
}

// Compare orders two values of the same type. NULL sorts before any
// non-NULL value, a DOUBLE NaN before any number. It panics if the types differ, as that indicates a
// planner bug rather than a data error.
func Compare(a, b Value) int {
	if a.typ != b.typ {
		panic(fmt.Sprintf("value: comparing %s with %s", a.typ, b.typ))
	}
	switch {
	case a.null && b.null:
		return 0
	case a.null:
		return -1
	case b.null:
		return 1
	}
	switch a.typ {
	case Integer, Bigint, Date:
		switch {
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return 0
	case Double:
		// NaN sorts before every number and equal to itself, so the order
		// is total and the column store's sorted dictionaries can hold one.
		return cmp.Compare(a.Double(), b.Double())
	case Varchar:
		switch {
		case a.str < b.str:
			return -1
		case a.str > b.str:
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Equal reports whether two values are identical (same type, same payload,
// with NULL equal to NULL).
func Equal(a, b Value) bool {
	if a.typ != b.typ || a.null != b.null {
		return false
	}
	if a.null {
		return true
	}
	if a.typ == Varchar {
		return a.str == b.str
	}
	return a.num == b.num
}

// Less reports whether a sorts before b. See Compare for NULL ordering.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// FNV-1a constants, used inline to keep Hash allocation-free (it runs on
// every hash-join probe and index operation).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// Hash returns a 64-bit hash of the value, suitable for hash joins and
// group-by tables. Values that are Equal hash identically.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset)
	tag := byte(v.typ)
	if v.null {
		return fnvByte(h, tag|0x80)
	}
	h = fnvByte(h, tag)
	if v.typ == Varchar {
		for i := 0; i < len(v.str); i++ {
			h = fnvByte(h, v.str[i])
		}
		return h
	}
	n := uint64(v.num)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(n>>(8*i)))
	}
	return h
}

// HashRow combines the hashes of a slice of values (e.g. a composite key):
// HashStep folded over the values' hashes, starting from HashSeed.
func HashRow(vals []Value) uint64 {
	h := uint64(HashSeed)
	for _, v := range vals {
		h = HashStep(h, v.Hash())
	}
	return h
}

// HashSeed is the HashRow of no values.
const HashSeed = fnvOffset

// HashStep extends the row hash h by the hash vh of the row's next value.
func HashStep(h, vh uint64) uint64 { return (h ^ vh) * fnvPrime }

// Key returns a comparable string key uniquely identifying the value within
// its type. It is used for map-based dictionaries and group-by keys.
func (v Value) Key() string {
	if v.null {
		return "\x00N"
	}
	if v.typ == Varchar {
		return "s" + v.str
	}
	var b [9]byte
	b[0] = 'n'
	n := uint64(v.num)
	for i := 0; i < 8; i++ {
		b[1+i] = byte(n >> (8 * i))
	}
	return string(b[:])
}

// TupleKey returns a collision-free comparable key for a tuple of
// values (e.g. a composite primary key): each component's Key is
// length-prefixed, so component boundaries stay unambiguous even when a
// VARCHAR contains a would-be separator byte.
func TupleKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		k := v.Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// Coerce converts v to type t where a lossless or standard SQL conversion
// exists (integer widening, integer→double, string→typed parse). It returns
// an error for unsupported conversions.
func Coerce(v Value, t Type) (Value, error) {
	if v.typ == t {
		return v, nil
	}
	if v.null {
		return Null(t), nil
	}
	switch t {
	case Bigint:
		if v.typ == Integer {
			return NewBigint(v.num), nil
		}
	case Integer:
		if v.typ == Bigint {
			return NewInt(v.num), nil
		}
	case Double:
		if v.typ == Integer || v.typ == Bigint {
			return NewDouble(float64(v.num)), nil
		}
	case Date:
		if v.typ == Varchar {
			return ParseDate(v.str)
		}
		if v.typ == Integer || v.typ == Bigint {
			return NewDate(v.num), nil
		}
	case Varchar:
		return NewVarchar(v.String()), nil
	}
	return Value{}, fmt.Errorf("value: cannot coerce %s to %s", v.typ, t)
}

// Bytes returns the approximate in-memory size of the value payload in an
// uncompressed representation, used for compression-rate accounting.
func (v Value) Bytes() int {
	switch v.typ {
	case Integer:
		return 4
	case Bigint, Double, Date:
		return 8
	case Varchar:
		return len(v.str)
	default:
		return 8
	}
}
