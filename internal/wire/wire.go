// Package wire defines the hsqld network protocol: length-prefixed
// binary frames. Requests are encoded with the internal/wal codec (the
// same uvarint-framed primitives WAL records and snapshots use, so a
// COPY batch's rows are encoded alike on the wire and in the log).
// Result sets travel column-major since protocol version 2: the row
// count, then per column one kind byte and its values, untagged when the
// column holds one type and no NULL (see columns.go). This package is the
// one place that knows the format; the server and the client call it.
//
// A frame is [uint32 LE payload length][payload]; the payload's first
// byte is the message type. Each request frame receives exactly one
// response frame, in request order — the ordering is what lets clients
// pipeline without per-request correlation ids, and a request's position
// (Hello is 0) is the number a Cancel names it by. Frames larger than the
// reader's limit are rejected before any allocation, and truncated
// frames surface as io.ErrUnexpectedEOF, so a malicious or confused peer
// cannot make the server allocate or block unboundedly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"hybridstore/internal/value"
	"hybridstore/internal/wal"
)

// ProtocolVersion is bumped on incompatible frame-format changes; Hello
// carries the client's version and the server rejects mismatches.
const ProtocolVersion = 3

// DefaultMaxFrame caps the payload size either side accepts (and the
// row payload a response may carry). Large results should be paged with
// LIMIT; large inserts split into batches.
const DefaultMaxFrame = 8 << 20

// frameHeaderLen is the fixed [length] prefix.
const frameHeaderLen = 4

// MaxRetained caps the frame buffer a session or connection keeps for
// its next frame: a buffer grown past it by one large result is dropped
// rather than held for the life of the connection.
const MaxRetained = 512 << 10

// ErrFrameTooLarge reports a response whose payload passed the frame
// limit; AppendResponse stops encoding as soon as it does.
var ErrFrameTooLarge = errors.New("wire: response exceeds the frame limit")

// Request message types.
const (
	// MsgHello opens a session: client name, protocol version and an
	// optional per-statement timeout.
	MsgHello byte = 0x01
	// MsgExec parses and executes one SQL statement (params allowed).
	MsgExec byte = 0x02
	// MsgPrepare registers a prepared statement and returns its handle.
	MsgPrepare byte = 0x03
	// MsgStmtExec executes a prepared statement with bound parameters.
	MsgStmtExec byte = 0x04
	// MsgStmtClose drops a prepared-statement handle.
	MsgStmtClose byte = 0x05
	// MsgPing checks liveness.
	MsgPing byte = 0x06
	// MsgCancel is the one frame of a connection of its own: it names a
	// session, the key its Welcome carried and the position of one of
	// its requests. The server cancels that request if it is running,
	// at its start if it has not been read yet, and not at all if it has
	// finished; it answers nothing and closes the connection. The
	// cancelled statement's response reports the cancellation.
	MsgCancel byte = 0x07
	// MsgQuit closes the session after the pipeline drains.
	MsgQuit byte = 0x08
	// MsgCopy appends one bulk-ingest batch (thousands of rows encoded
	// with the shared WAL codec) to a table. The whole frame is applied
	// atomically and durably as one WAL group-commit record; the reply
	// is MsgOK carrying the row count. Frames pipeline like any other
	// request.
	MsgCopy byte = 0x09
)

// Response message types.
const (
	// MsgWelcome answers Hello with the session id and the session's
	// random cancel key.
	MsgWelcome byte = 0x81
	// MsgOK reports a statement that returned no rows.
	MsgOK byte = 0x82
	// MsgRows carries a result set, column-major (see columns.go).
	MsgRows byte = 0x83
	// MsgPrepared answers Prepare with the handle and parameter count.
	MsgPrepared byte = 0x84
	// MsgError reports a failed request.
	MsgError byte = 0x85
	// MsgPong answers Ping.
	MsgPong byte = 0x86
)

// Error codes carried by MsgError.
const (
	// CodeSQL: the statement failed to parse, bind or execute.
	CodeSQL byte = 1
	// CodeShutdown: the server is draining; the session should
	// disconnect.
	CodeShutdown byte = 2
	// CodeCancelled: the statement was aborted by a cancel or deadline.
	CodeCancelled byte = 3
	// CodeProtocol: the peer violated the protocol (bad frame, unknown
	// type, oversized result).
	CodeProtocol byte = 4
	// CodeTooBusy: admission control rejected the connection.
	CodeTooBusy byte = 5
	// CodeUnknownStmt: StmtExec/StmtClose named a handle this session
	// does not hold. The statement provably did not execute, so drivers
	// may re-prepare and retry transparently without double-applying.
	CodeUnknownStmt byte = 6
	// CodeTxnConflict: a first-updater-wins write-write conflict aborted
	// the session's transaction under snapshot isolation. The transaction
	// rolled back cleanly; the whole transaction (not the statement) is
	// safe to retry from BEGIN.
	CodeTxnConflict byte = 7
	// CodeUnsupported: the statement is well-formed but the engine
	// genuinely cannot execute it (e.g. COPY inside an open
	// transaction). Unlike CodeSQL it is never worth retrying unchanged.
	CodeUnsupported byte = 8
)

// Request is one client→server message; only the fields of its Type are
// meaningful.
type Request struct {
	Type byte

	// Hello.
	ClientName string
	Version    int
	// Timeout is the per-statement deadline the session wants (0 =
	// none); the server clamps it to its configured maximum, when one
	// is set.
	Timeout time.Duration

	// Exec / Prepare: statement text. StmtExec/StmtClose: handle.
	SQL    string
	Stmt   uint64
	Params []value.Value

	// Copy: target table, row arity and the batch itself.
	Table string
	Width int
	Rows  [][]value.Value
	// Cancel: the session, its key and the request's position.
	Session, Key, Seq uint64
}

// Response is one server→client message; only the fields of its Type
// are meaningful.
type Response struct {
	Type byte

	// Welcome.
	Session, Key uint64

	// Prepared.
	Stmt      uint64
	NumParams int

	// OK / Rows.
	Affected int
	Duration time.Duration
	Cols     []string
	Rows     [][]value.Value

	// Error.
	Code byte
	Err  string
}

// ReadFrame reads one frame payload into buf's storage when it fits (buf
// may be nil), rejecting frames larger than max (0 = DefaultMaxFrame)
// without allocating for them. A cleanly closed connection between
// frames returns io.EOF; a connection cut inside a frame returns
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := buf[:0]
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame (%d bytes expected): %w", n, io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	return payload, nil
}

// EncodeRequest serializes a request into a frame payload.
func EncodeRequest(rq *Request) []byte { return AppendRequest(nil, rq)[frameHeaderLen:] }

// AppendRequest appends rq to dst as one whole frame, header included,
// so it can go out in a single Write.
func AppendRequest(dst []byte, rq *Request) []byte {
	start := len(dst)
	e := wal.AppendEncoder(append(dst, 0, 0, 0, 0))
	e.Byte(rq.Type)
	switch rq.Type {
	case MsgHello:
		e.String(rq.ClientName)
		e.Uvarint(uint64(rq.Version))
		e.Uvarint(uint64(rq.Timeout))
	case MsgExec:
		e.String(rq.SQL)
		encodeParams(e, rq.Params)
	case MsgPrepare:
		e.String(rq.SQL)
	case MsgStmtExec:
		e.Uvarint(rq.Stmt)
		encodeParams(e, rq.Params)
	case MsgStmtClose:
		e.Uvarint(rq.Stmt)
	case MsgCopy:
		e.String(rq.Table)
		e.Varint(int64(rq.Width))
		e.Rows(rq.Rows)
	case MsgCancel:
		e.Uvarint(rq.Session)
		e.Uvarint(rq.Key)
		e.Uvarint(rq.Seq)
	}
	dst = e.Bytes()
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// DecodeRequest parses a frame payload into a request.
func DecodeRequest(payload []byte) (*Request, error) {
	d := wal.NewDecoder(payload)
	rq := &Request{Type: d.Byte()}
	switch rq.Type {
	case MsgHello:
		rq.ClientName = d.String()
		rq.Version = int(d.Uvarint())
		rq.Timeout = time.Duration(d.Uvarint())
	case MsgExec:
		rq.SQL = d.String()
		var perr error
		if rq.Params, perr = decodeParams(d); perr != nil {
			return nil, perr
		}
	case MsgPrepare:
		rq.SQL = d.String()
	case MsgStmtExec:
		rq.Stmt = d.Uvarint()
		var perr error
		if rq.Params, perr = decodeParams(d); perr != nil {
			return nil, perr
		}
	case MsgStmtClose:
		rq.Stmt = d.Uvarint()
	case MsgCopy:
		rq.Table = d.String()
		rq.Width = d.Int()
		if d.Err() == nil && (rq.Width <= 0 || rq.Width > d.Remaining()+1) {
			return nil, fmt.Errorf("wire: implausible copy width %d", rq.Width)
		}
		// The codec's Rows already bounds up-front allocation and
		// validates the claimed count against the remaining bytes.
		rq.Rows = d.Rows(rq.Width)
	case MsgCancel:
		rq.Session, rq.Key, rq.Seq = d.Uvarint(), d.Uvarint(), d.Uvarint()
	case MsgPing, MsgQuit:
	default:
		return nil, fmt.Errorf("wire: unknown request type 0x%02x", rq.Type)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad request: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in request", d.Remaining())
	}
	return rq, nil
}

// AppendResponse appends rs to dst as one whole frame, header included,
// so it can go out in a single Write. It stops as soon as the payload
// passes max bytes (0 = DefaultMaxFrame) and returns dst as it was with
// ErrFrameTooLarge: an oversized result is never serialized in full.
func AppendResponse(dst []byte, rs *Response, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	start := len(dst)
	dst, ok := appendPayload(append(dst, 0, 0, 0, 0), rs, start+frameHeaderLen+max)
	if !ok {
		return dst[:start], ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeaderLen))
	return dst, nil
}

// EncodeResponse serializes a response into a frame payload.
func EncodeResponse(rs *Response) []byte {
	payload, _ := appendPayload(nil, rs, math.MaxInt)
	return payload
}

// appendPayload appends rs's payload to dst; it stops and reports false
// once dst grows past limit bytes.
func appendPayload(dst []byte, rs *Response, limit int) ([]byte, bool) {
	dst = append(dst, rs.Type)
	switch rs.Type {
	case MsgWelcome:
		dst = binary.AppendUvarint(dst, rs.Session)
		dst = binary.AppendUvarint(dst, rs.Key)
	case MsgOK:
		dst = binary.AppendVarint(dst, int64(rs.Affected))
		dst = binary.AppendUvarint(dst, uint64(rs.Duration))
	case MsgRows:
		dst = binary.AppendVarint(dst, int64(rs.Affected))
		dst = binary.AppendUvarint(dst, uint64(rs.Duration))
		dst = binary.AppendUvarint(dst, uint64(len(rs.Cols)))
		for _, c := range rs.Cols {
			dst = appendString(dst, c)
		}
		return appendColumns(dst, rs.Rows, len(rs.Cols), limit)
	case MsgPrepared:
		dst = binary.AppendUvarint(dst, rs.Stmt)
		dst = binary.AppendUvarint(dst, uint64(rs.NumParams))
	case MsgError:
		dst = append(dst, rs.Code)
		dst = appendString(dst, rs.Err)
	case MsgPong:
	}
	return dst, len(dst) <= limit
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeResponse parses a frame payload into a response.
func DecodeResponse(payload []byte) (*Response, error) {
	d := wal.NewDecoder(payload)
	rs := &Response{Type: d.Byte()}
	switch rs.Type {
	case MsgWelcome:
		rs.Session, rs.Key = d.Uvarint(), d.Uvarint()
	case MsgOK:
		rs.Affected = d.Int()
		rs.Duration = time.Duration(d.Uvarint())
	case MsgRows:
		rs.Affected = d.Int()
		rs.Duration = time.Duration(d.Uvarint())
		n := d.Uvarint()
		if d.Err() == nil && (n == 0 || n > uint64(d.Remaining())) {
			// Zero columns would let a row section of width 0 claim an
			// arbitrary row count at zero bytes each; the server never
			// emits MsgRows without columns.
			return nil, fmt.Errorf("wire: implausible column count %d", n)
		}
		rs.Cols = make([]string, 0, min(n, allocBatch))
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			rs.Cols = append(rs.Cols, d.String())
		}
		if d.Err() == nil {
			// The column-major row section runs to the end of the frame.
			var err error
			if rs.Rows, err = decodeColumns(payload[len(payload)-d.Remaining():], len(rs.Cols)); err != nil {
				return nil, err
			}
			return rs, nil
		}
	case MsgPrepared:
		rs.Stmt = d.Uvarint()
		rs.NumParams = int(d.Uvarint())
	case MsgError:
		rs.Code = d.Byte()
		rs.Err = d.String()
	case MsgPong:
	default:
		return nil, fmt.Errorf("wire: unknown response type 0x%02x", rs.Type)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad response: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in response", d.Remaining())
	}
	return rs, nil
}

func encodeParams(e *wal.Encoder, params []value.Value) {
	e.Uvarint(uint64(len(params)))
	for _, v := range params {
		e.Value(v)
	}
}

// allocBatch caps up-front slice capacity when decoding claimed counts:
// growth beyond it is paid only as elements actually decode, so a frame
// claiming millions of entries cannot amplify its own byte size into a
// huge allocation before the first bogus element fails.
const allocBatch = 4096

func decodeParams(d *wal.Decoder) ([]value.Value, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, nil // surfaced by the caller's d.Err() check
	}
	if n > uint64(d.Remaining()) { // each value takes >= 1 byte
		return nil, fmt.Errorf("wire: implausible parameter count %d", n)
	}
	out := make([]value.Value, 0, min(n, allocBatch))
	for i := uint64(0); i < n; i++ {
		v := d.Value()
		if d.Err() != nil {
			return nil, nil
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// WriteRequest encodes and frames a request.
func WriteRequest(w io.Writer, rq *Request) error {
	_, err := w.Write(AppendRequest(nil, rq))
	return err
}

// WriteResponse encodes and frames a response.
func WriteResponse(w io.Writer, rs *Response) error {
	frame, err := AppendResponse(nil, rs, 0)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}
