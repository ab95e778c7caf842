package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybridstore/internal/value"
)

func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(6) {
	case 0:
		return value.NewInt(rng.Int63n(1000) - 500)
	case 1:
		return value.NewBigint(rng.Int63() - rng.Int63())
	case 2:
		return value.NewDouble(rng.NormFloat64() * 1e6)
	case 3:
		return value.NewVarchar(strings.Repeat("x", rng.Intn(20)) + "'q\x00")
	case 4:
		return value.NewDate(rng.Int63n(40000))
	default:
		return value.Null(value.Type(1 + rng.Intn(5)))
	}
}

func randParams(rng *rand.Rand) []value.Value {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	out := make([]value.Value, n)
	for i := range out {
		out[i] = randValue(rng)
	}
	return out
}

// paramsEqual treats nil and empty as equal (the wire cannot tell them
// apart).
func paramsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRequestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		var rq Request
		switch rng.Intn(8) {
		case 0:
			rq = Request{Type: MsgHello, ClientName: "bench-w1", Version: ProtocolVersion, Timeout: time.Duration(rng.Intn(5000)) * time.Millisecond}
		case 1:
			rq = Request{Type: MsgExec, SQL: "SELECT * FROM t WHERE a = ? ORDER BY b DESC", Params: randParams(rng)}
		case 2:
			rq = Request{Type: MsgPrepare, SQL: "INSERT INTO t VALUES (?, ?, ?)"}
		case 3:
			rq = Request{Type: MsgStmtExec, Stmt: rng.Uint64() % 1e6, Params: randParams(rng)}
		case 4:
			rq = Request{Type: MsgStmtClose, Stmt: rng.Uint64() % 1e6}
		case 5:
			rq = Request{Type: MsgPing}
		case 6:
			rq = Request{Type: MsgCancel, Session: rng.Uint64() % 1e9, Key: rng.Uint64(), Seq: rng.Uint64() % 1e6}
		default:
			rq = Request{Type: MsgQuit}
		}
		got, err := DecodeRequest(EncodeRequest(&rq))
		if err != nil {
			t.Fatalf("decode %+v: %v", rq, err)
		}
		if got.Type != rq.Type || got.SQL != rq.SQL || got.Stmt != rq.Stmt ||
			got.ClientName != rq.ClientName || got.Version != rq.Version || got.Timeout != rq.Timeout ||
			got.Session != rq.Session || got.Key != rq.Key || got.Seq != rq.Seq ||
			!paramsEqual(got.Params, rq.Params) {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", rq, got)
		}
	}
}

func randRows(rng *rand.Rand, width int) [][]value.Value {
	rows := make([][]value.Value, rng.Intn(6))
	for i := range rows {
		row := make([]value.Value, width)
		for j := range row {
			row[j] = randValue(rng)
		}
		rows[i] = row
	}
	if len(rows) == 0 {
		return nil
	}
	return rows
}

func TestResponseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		var rs Response
		switch rng.Intn(6) {
		case 0:
			rs = Response{Type: MsgWelcome, Session: rng.Uint64() % 1e9, Key: rng.Uint64()}
		case 1:
			rs = Response{Type: MsgOK, Affected: rng.Intn(1000), Duration: time.Duration(rng.Intn(1e9))}
		case 2:
			cols := []string{"a", "b", "c"}[:1+rng.Intn(3)]
			rs = Response{Type: MsgRows, Affected: rng.Intn(10), Duration: time.Duration(rng.Intn(1e9)),
				Cols: cols, Rows: randRows(rng, len(cols))}
		case 3:
			rs = Response{Type: MsgPrepared, Stmt: rng.Uint64() % 1e6, NumParams: rng.Intn(10)}
		case 4:
			rs = Response{Type: MsgError, Code: CodeSQL, Err: "sql: boom"}
		default:
			rs = Response{Type: MsgPong}
		}
		got, err := DecodeResponse(EncodeResponse(&rs))
		if err != nil {
			t.Fatalf("decode %+v: %v", rs, err)
		}
		if got.Type != rs.Type || got.Session != rs.Session || got.Key != rs.Key || got.Stmt != rs.Stmt ||
			got.NumParams != rs.NumParams || got.Affected != rs.Affected ||
			got.Duration != rs.Duration || got.Code != rs.Code || got.Err != rs.Err ||
			!reflect.DeepEqual(got.Cols, rs.Cols) {
			t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", rs, got)
		}
		if len(got.Rows) != len(rs.Rows) {
			t.Fatalf("row count mismatch: %d vs %d", len(got.Rows), len(rs.Rows))
		}
		for r := range rs.Rows {
			if !paramsEqual(got.Rows[r], rs.Rows[r]) {
				t.Fatalf("row %d mismatch", r)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{0x01}, []byte("hello frame"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, p := range payloads {
		buf.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(p))))
		buf.Write(p)
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, nil, 0); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, 1<<30) // claims 1 GiB
	buf.Write(hdr)
	_, err := ReadFrame(&buf, nil, 1<<20)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame accepted: %v", err)
	}
	// The default limit also rejects it.
	buf.Reset()
	buf.Write(hdr)
	if _, err := ReadFrame(&buf, nil, 0); err == nil {
		t.Fatal("oversized frame accepted under default limit")
	}
}

func TestTruncatedFrameRejected(t *testing.T) {
	raw := AppendRequest(nil, &Request{Type: MsgExec, SQL: "SELECT * FROM t", Params: []value.Value{value.NewInt(7)}})
	full := raw[4:]
	// Every proper prefix must fail with ErrUnexpectedEOF (or io.EOF for
	// the empty prefix), never hang or misparse.
	for cut := 0; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), nil, 0)
		if err == nil {
			t.Fatalf("truncated frame (cut %d/%d) accepted", cut, len(raw))
		}
		if cut > 0 && cut != len(raw) && err != io.EOF && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
	}
	// Truncated *payloads* inside a well-formed frame must error, not
	// panic.
	for cut := 1; cut < len(full); cut++ {
		if _, err := DecodeRequest(full[:cut]); err == nil {
			// Some prefixes can decode to a shorter-but-valid request
			// only if every field still parses AND nothing trails;
			// with a trailing-bytes check this should never happen.
			t.Fatalf("truncated payload (cut %d/%d) accepted", cut, len(full))
		}
	}
}

func TestEmptyAndUnknownPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := ReadFrame(&buf, nil, 0); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, err := DecodeRequest([]byte{0x7F}); err == nil {
		t.Fatal("unknown request type accepted")
	}
	if _, err := DecodeResponse([]byte{0x10}); err == nil {
		t.Fatal("unknown response type accepted")
	}
	// Trailing garbage after a valid message is a protocol error.
	p := append(EncodeRequest(&Request{Type: MsgPing}), 0xFF)
	if _, err := DecodeRequest(p); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzDecodeRequest asserts decode never panics and that every frame we
// encode survives a round trip.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(&Request{Type: MsgExec, SQL: "SELECT 1 FROM t", Params: []value.Value{value.NewInt(1)}}))
	f.Add(EncodeRequest(&Request{Type: MsgHello, ClientName: "c", Version: 1}))
	f.Add(EncodeRequest(&Request{Type: MsgStmtExec, Stmt: 3, Params: []value.Value{value.Null(value.Varchar)}}))
	f.Add(EncodeRequest(&Request{Type: MsgCancel, Session: 12, Key: 0x9E3779B97F4A7C15, Seq: 300}))
	f.Add([]byte{0x02, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rq, err := DecodeRequest(data)
		if err != nil {
			return
		}
		re, err := DecodeRequest(EncodeRequest(rq))
		if err != nil {
			t.Fatalf("re-decode of valid request failed: %v", err)
		}
		if re.Type != rq.Type || re.SQL != rq.SQL || re.Stmt != rq.Stmt || !paramsEqual(re.Params, rq.Params) ||
			re.Session != rq.Session || re.Key != rq.Key || re.Seq != rq.Seq {
			t.Fatalf("unstable round trip: %+v vs %+v", rq, re)
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the response side:
// every response that decodes re-encodes to the same values, bit for
// bit.
func FuzzDecodeResponse(f *testing.F) {
	for _, rs := range columnFrames() {
		f.Add(EncodeResponse(rs))
	}
	f.Add(EncodeResponse(&Response{Type: MsgError, Code: CodeSQL, Err: "x"}))
	f.Add(EncodeResponse(&Response{Type: MsgWelcome, Session: 12, Key: 0x9E3779B97F4A7C15}))
	f.Add([]byte{0x83, 0x00, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeResponse(data)
		if err != nil {
			return
		}
		re, err := DecodeResponse(EncodeResponse(rs))
		if err != nil {
			t.Fatalf("re-decode of valid response failed: %v", err)
		}
		if err := sameRows(re.Rows, rs.Rows); err != nil {
			t.Fatalf("unstable round trip: %v", err)
		}
		if re.Session != rs.Session || re.Key != rs.Key {
			t.Fatalf("unstable Welcome: %+v vs %+v", rs, re)
		}
	})
}

// sameValue compares two values bit for bit: NaN payloads and the sign
// of zero included.
func sameValue(a, b value.Value) bool {
	return a.Type() == b.Type() && a.IsNull() == b.IsNull() && a.Bits() == b.Bits() && a.Varchar() == b.Varchar()
}

func sameRows(got, want [][]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d col %d: %v (%s), want %v (%s)", i, j,
					got[i][j], got[i][j].Type(), want[i][j], want[i][j].Type())
			}
		}
	}
	return nil
}

// oneColumn builds a one-column result from its values.
func oneColumn(vals ...value.Value) *Response {
	rows := make([][]value.Value, len(vals))
	for i, v := range vals {
		rows[i] = []value.Value{v}
	}
	return &Response{Type: MsgRows, Cols: []string{"c"}, Rows: rows}
}

// columnFrames has one result per column kind: an untagged column of
// each of the five types, edge values included, then a NULL-bearing and
// a mixed column, which travel tagged.
func columnFrames() []*Response {
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	return []*Response{
		oneColumn(value.NewInt(math.MinInt32), value.NewInt(0), value.NewInt(math.MaxInt32)),
		oneColumn(value.NewBigint(math.MinInt64), value.NewBigint(-1), value.NewBigint(math.MaxInt64)),
		oneColumn(value.NewDouble(nan), value.NewDouble(0), value.NewDouble(math.Copysign(0, -1)),
			value.NewDouble(math.Inf(1)), value.NewDouble(math.Inf(-1)), value.NewDouble(math.SmallestNonzeroFloat64)),
		oneColumn(value.NewVarchar(""), value.NewVarchar(strings.Repeat("v", 64<<10)), value.NewVarchar("'q\x00é")),
		oneColumn(value.NewDate(-719162), value.NewDate(0), value.NewDate(2932896)),
		oneColumn(value.NewBigint(1), value.Null(value.Bigint), value.NewBigint(3)),
		oneColumn(value.NewInt(1), value.NewBigint(2), value.NewDouble(math.NaN()), value.NewVarchar(""),
			value.NewDate(4), value.Null(value.Varchar), value.Null(value.Double)),
	}
}

func TestResponseColumnKinds(t *testing.T) {
	frames := columnFrames()
	// One result with every kind side by side, and its zero- and one-row
	// prefixes.
	wide := &Response{Type: MsgRows, Affected: 7, Duration: time.Second}
	for j := range frames {
		wide.Cols = append(wide.Cols, fmt.Sprintf("c%d", j))
	}
	for i := 0; i < 3; i++ {
		row := make([]value.Value, len(frames))
		for j, rs := range frames {
			row[j] = rs.Rows[i][0]
		}
		wide.Rows = append(wide.Rows, row)
	}
	frames = append(frames, wide,
		&Response{Type: MsgRows, Cols: wide.Cols, Rows: wide.Rows[:1]},
		&Response{Type: MsgRows, Cols: wide.Cols, Rows: [][]value.Value{}})
	for k, rs := range frames {
		payload := EncodeResponse(rs)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if !reflect.DeepEqual(got.Cols, rs.Cols) || got.Affected != rs.Affected || got.Duration != rs.Duration {
			t.Fatalf("frame %d: header %+v, want %+v", k, got, rs)
		}
		if err := sameRows(got.Rows, rs.Rows); err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		// Every proper prefix of the payload fails cleanly.
		for cut := 0; cut < len(payload); cut += 1 + cut/64 {
			if _, err := DecodeResponse(payload[:cut]); err == nil {
				t.Fatalf("frame %d: truncated payload (cut %d/%d) accepted", k, cut, len(payload))
			}
		}
	}
}

// TestResponseColumnKindBytes pins which columns travel untagged: a
// column of one type without NULLs costs no tag byte per value.
func TestResponseColumnKindBytes(t *testing.T) {
	for k, rs := range columnFrames() {
		p := EncodeResponse(rs)
		// Type, affected, duration, column count, "c", row count: 7 bytes.
		kind := p[7]
		want := byte(rs.Rows[0][0].Type())
		if k >= 5 {
			want = kindTagged
		}
		if kind != want {
			t.Fatalf("frame %d: kind 0x%02x, want 0x%02x", k, kind, want)
		}
	}
	dbl := EncodeResponse(oneColumn(value.NewDouble(1), value.NewDouble(2)))
	if got := len(dbl) - 8; got != 16 {
		t.Fatalf("two untagged DOUBLEs take %d bytes, want 16", got)
	}
}

func TestResponseHugeRowClaimRejected(t *testing.T) {
	p := []byte{MsgRows, 0, 0, 2, 1, 'a', 1, 'b'}
	p = binary.AppendUvarint(p, 1<<40)
	p = append(p, byte(value.Double), 0, 0, 0, 0, 0, 0, 0, 0, byte(value.Bigint), 2)
	if len(p) >= 64 {
		t.Fatalf("frame is %d bytes", len(p))
	}
	if _, err := DecodeResponse(p); err == nil || !strings.Contains(err.Error(), "implausible row count") {
		t.Fatalf("claim of 2^40 rows: %v", err)
	}
	// Averaged over many rejections, so that what other goroutines
	// allocate meanwhile stays noise.
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		DecodeResponse(p)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
		t.Fatalf("rejecting the claim allocated %d bytes", per)
	}
}

// TestDecodedVarcharsDoNotAliasFrame reads two frames through one reused
// buffer, as the client does, and checks the first result's strings
// survive the second read and an overwrite.
func TestDecodedVarcharsDoNotAliasFrame(t *testing.T) {
	want := [][]value.Value{
		{value.NewVarchar("alpha"), value.NewVarchar("beta")},
		{value.NewVarchar("gamma"), value.Null(value.Varchar)},
	}
	first := &Response{Type: MsgRows, Cols: []string{"x", "y"}, Rows: want}
	var stream bytes.Buffer
	for _, rs := range []*Response{first, oneColumn(value.NewVarchar(strings.Repeat("z", 200)))} {
		if err := WriteResponse(&stream, rs); err != nil {
			t.Fatal(err)
		}
	}
	// A buffer that an earlier, larger frame grew: both frames land in it.
	buf := make([]byte, 0, 4096)
	frame, err := ReadFrame(&stream, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = ReadFrame(&stream, buf, 0); err != nil {
		t.Fatal(err)
	}
	if &frame[0] != &buf[:1][0] {
		t.Fatal("the second frame was not read into the reused buffer")
	}
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = 0xAA
	}
	if err := sameRows(got.Rows, want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cols, first.Cols) {
		t.Fatalf("columns %q", got.Cols)
	}
}

// TestDecodedRequestDoesNotAliasFrame reads two request frames through
// one reused buffer, as a session does, and checks the first request's
// text, parameters and rows survive the second read and an overwrite.
func TestDecodedRequestDoesNotAliasFrame(t *testing.T) {
	params := []value.Value{value.NewVarchar("alpha"), value.NewBigint(7)}
	rows := [][]value.Value{{value.NewVarchar("beta"), value.NewDouble(1.5)}}
	var stream bytes.Buffer
	stream.Write(AppendRequest(nil, &Request{Type: MsgExec, SQL: "SELECT v FROM t WHERE k = ? AND g = ?", Params: params}))
	stream.Write(AppendRequest(nil, &Request{Type: MsgCopy, Table: "t", Width: 2, Rows: rows}))
	stream.Write(AppendRequest(nil, &Request{Type: MsgExec, SQL: strings.Repeat("z", 200)}))
	buf := make([]byte, 0, 4096)
	var got []*Request
	for i := 0; i < 3; i++ {
		frame, err := ReadFrame(&stream, buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if &frame[0] != &buf[:1][0] {
			t.Fatalf("frame %d was not read into the reused buffer", i)
		}
		rq, err := DecodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rq)
	}
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = 0xAA
	}
	if got[0].SQL != "SELECT v FROM t WHERE k = ? AND g = ?" || !paramsEqual(got[0].Params, params) {
		t.Fatalf("exec request after overwrite: %+v", got[0])
	}
	if got[1].Table != "t" {
		t.Fatalf("copy table after overwrite: %q", got[1].Table)
	}
	if err := sameRows(got[1].Rows, rows); err != nil {
		t.Fatal(err)
	}
}

func TestAppendResponseStopsAtLimit(t *testing.T) {
	rows := make([][]value.Value, 100_000)
	for i := range rows {
		rows[i] = []value.Value{value.NewBigint(int64(i)), value.NewVarchar("0123456789")}
	}
	rs := &Response{Type: MsgRows, Cols: []string{"k", "v"}, Rows: rows}
	const max = 64 << 10
	dst := []byte("kept")
	got, err := AppendResponse(dst, rs, max)
	if err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
	if string(got) != "kept" {
		t.Fatalf("dst not restored: %d bytes", len(got))
	}
	if cap(got) > 4*max {
		t.Fatalf("encoder grew to %d bytes before stopping", cap(got))
	}
	frame, err := AppendResponse(nil, &Response{Type: MsgRows, Cols: rs.Cols, Rows: rows[:10]}, max)
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("header says %d, payload is %d", n, len(frame)-4)
	}
}

// BenchmarkResponseRoundTrip encodes a result into a reused frame buffer,
// reads it back through another and decodes it: the server's write and
// the client's read. project is the shape of olap_scan's 5 000-row
// projection (BIGINT, 4 DOUBLE, 3 INTEGER), point a one-row point read.
func BenchmarkResponseRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	project := make([][]value.Value, 5000)
	for i := range project {
		project[i] = []value.Value{
			value.NewBigint(int64(i) * 7),
			value.NewDouble(rng.Float64() * 1e4), value.NewDouble(float64(rng.Intn(1000))),
			value.NewDouble(rng.NormFloat64()), value.NewDouble(float64(i) / 4),
			value.NewInt(int64(rng.Intn(100))), value.NewInt(int64(rng.Intn(10_000))), value.NewInt(int64(i % 7)),
		}
	}
	point := [][]value.Value{{value.NewBigint(42), value.NewInt(7), value.NewDouble(12.5),
		value.NewVarchar("customer-42"), value.NewDate(19000)}}
	for _, bc := range []struct {
		name string
		rs   *Response
	}{
		{"project", &Response{Type: MsgRows, Cols: []string{"k", "a", "b", "c", "d", "e", "f", "g"}, Rows: project}},
		{"point", &Response{Type: MsgRows, Cols: []string{"k", "a", "b", "c", "d"}, Rows: point}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var wbuf, rbuf []byte
			var r bytes.Reader
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if wbuf, err = AppendResponse(wbuf[:0], bc.rs, 0); err != nil {
					b.Fatal(err)
				}
				r.Reset(wbuf)
				if rbuf, err = ReadFrame(&r, rbuf, 0); err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeResponse(rbuf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(wbuf)), "frame_B")
		})
	}
}
