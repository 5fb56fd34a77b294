// The wire codec: one hand-written, append-style JSON encoder and decoder
// for the row shapes the /v1 protocol returns — events, query.RunRecord,
// plan.ResultRow — and the PageResult, cql.Result and Response wrappers
// around them. Row results are nearly all of the bytes the protocol
// moves, so they bypass reflection; every other payload (stats, heat
// maps, trailers, cluster RPCs) goes through encoding/json. The server
// encodes an event off its scan view (AppendEventRow), never as a
// query.EventRecord: that record is only decoded, by the SDK.
//
// The codec is a drop-in for encoding/json on these shapes, not a new
// format. The encoder emits exactly json.Marshal's bytes: struct fields in
// declaration order, omitempty honored, map keys sorted bytewise, a nil
// slice or map as null, '<' '>' '&' U+2028 U+2029 and control bytes
// escaped, invalid UTF-8 replaced by U+FFFD. The decoder accepts exactly
// what json.Unmarshal accepts and produces the same value: keys matched
// exactly and then case-insensitively, unknown keys skipped (but
// validated), null leaving scalars untouched, a repeated key merging into
// what the first occurrence left. FuzzWireRowCodec holds both to that.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"hpclog/internal/analytics"
	"hpclog/internal/cql"
	"hpclog/internal/plan"
	"hpclog/internal/query"
)

// Buffer is a pooled byte slice: the server builds one response in it,
// the client reads one response body into it.
type Buffer struct{ B []byte }

// maxPooledBuffer bounds what Release keeps: one oversized response must
// not pin its buffer for the life of the process.
const maxPooledBuffer = 4 << 20

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty buffer from the pool.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// Release returns the buffer to the pool. Nothing decoded from it aliases
// its bytes, so callers may release as soon as decoding is done.
func (b *Buffer) Release() {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.B = b.B[:0]
	bufferPool.Put(b)
}

// ReadFrom appends r's bytes up to EOF. Reading a response body to EOF
// (not merely to the end of its JSON value) is what lets net/http reuse
// the connection.
func (b *Buffer) ReadFrom(r io.Reader) (int64, error) {
	start := len(b.B)
	for {
		if cap(b.B)-len(b.B) < 512 {
			b.B = slices.Grow(b.B, 4096)
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return int64(len(b.B) - start), err
		}
	}
}

// PageResult is the result payload of a paginated request. Items holds
// the page's rows in result order — concatenating Items across pages
// reproduces the one-shot result exactly.
type PageResult[T any] struct {
	Items []T `json:"items"`
	// NextCursor resumes after the last item; empty means the result set
	// is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// --- Encoding ---

const hexDigits = "0123456789abcdef"

// plainByte[c] reports whether the ASCII byte c stands for itself inside
// a JSON string: everything but control bytes, the quote, the backslash
// and the three characters encoding/json escapes for HTML embedding.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Word-at-a-time byte tests (the bit-twiddling hacks' haszero and
// hasless), for scanning a string eight bytes at a time: each is non-zero
// when some byte of w is 0, below n (n <= 0x80, given no byte of w is
// 0x80 or more), or c. They may point at the wrong byte, never at none.
const lsb, msb = 0x0101010101010101, 0x8080808080808080

func hasZero(w uint64) uint64           { return (w - lsb) & ^w & msb }
func hasLess(w uint64, n uint64) uint64 { return (w - lsb*n) & ^w & msb }
func hasByte(w uint64, c uint64) uint64 { return hasZero(w ^ lsb*c) }

// word reads s[i:i+8] as a little-endian word.
func word[S string | []byte](s S, i int) uint64 {
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// plainPrefix returns how many leading bytes of s stand for themselves in
// a JSON string literal (see plainByte).
func plainPrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := word(s, i)
		if w&msb|hasLess(w, 0x20)|hasByte(w, '"')|hasByte(w, '\\')|hasByte(w, '<')|hasByte(w, '>')|hasByte(w, '&') != 0 {
			break
		}
	}
	for i < len(s) && s[i] < utf8.RuneSelf && plainByte[s[i]] {
		i++
	}
	return i
}

// appendString appends s as a JSON string literal.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if i += plainPrefix(s[i:]); i == len(s) {
			break
		}
		if c := s[i]; c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendStrings appends a []string; nil is null.
func appendStrings(b []byte, v []string) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// AppendEventRow appends one event as its JSON object: the encoder of
// every event the protocol returns, read off a scan or a write digest.
func AppendEventRow(b []byte, e *analytics.EventRow) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, e.Time, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, e.Type)
	b = append(b, `,"source":`...)
	b = appendString(b, e.Source)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(e.Count), 10)
	if e.Raw != "" {
		b = append(b, `,"raw":`...)
		b = appendString(b, e.Raw)
	}
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a.Name)
			b = append(b, ':')
			b = appendString(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendRun(b []byte, r *query.RunRecord) []byte {
	b = append(b, `{"jobid":`...)
	b = appendString(b, r.JobID)
	b = append(b, `,"app":`...)
	b = appendString(b, r.App)
	b = append(b, `,"user":`...)
	b = appendString(b, r.User)
	b = append(b, `,"start":`...)
	b = strconv.AppendInt(b, r.Start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, r.End, 10)
	b = append(b, `,"nodes":`...)
	b = appendStrings(b, r.Nodes)
	b = append(b, `,"exit_ok":`...)
	b = strconv.AppendBool(b, r.ExitOK)
	return append(b, '}')
}

// AppendResultRow appends one CQL result row as its JSON object: the
// clustering key and the columns, sorted by name as plan.Plan.Fields
// returns them (nil is null) — the encoder of every result row, read off
// a scan or built as a record.
func AppendResultRow(b []byte, key string, cols []plan.Field) []byte {
	b = append(b, `{"key":`...)
	b = appendString(b, key)
	if cols == nil {
		return append(b, `,"columns":null}`...)
	}
	b = append(b, `,"columns":{`...)
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, c.Name)
		b = append(b, ':')
		b = appendString(b, c.Value)
	}
	return append(b, '}', '}')
}

// appendResultRow encodes a record through the columns it stands for.
func appendResultRow(b []byte, r *plan.ResultRow) []byte {
	var cols []plan.Field
	if r.Columns != nil {
		var arr [16]plan.Field // the common case stays on the stack; more spills to the heap
		cols = arr[:0]
		for k, v := range r.Columns {
			cols = append(cols, plan.Field{Name: k, Value: v})
		}
		// Sorted by name, as encoding/json writes a map.
		slices.SortFunc(cols, func(a, b plan.Field) int { return strings.Compare(a.Name, b.Name) })
	}
	return AppendResultRow(b, r.Key, cols)
}

// appendRows appends a row slice; nil is null.
func appendRows[T any](b []byte, rows []T, row func([]byte, *T) []byte) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = row(b, &rows[i])
	}
	return append(b, ']')
}

func appendPage[T any](b []byte, p *PageResult[T], row func([]byte, *T) []byte) []byte {
	b = append(b, `{"items":`...)
	b = appendRows(b, p.Items, row)
	if p.NextCursor != "" {
		b = append(b, `,"next_cursor":`...)
		b = appendString(b, p.NextCursor)
	}
	return append(b, '}')
}

func appendCQLResult(b []byte, r *cql.Result) []byte {
	b = append(b, '{')
	open := len(b)
	if len(r.Rows) > 0 {
		b = append(b, `"rows":`...)
		b = appendRows(b, r.Rows, appendResultRow)
	}
	for _, f := range [...]struct {
		name string
		v    []string
	}{{`"plan":`, r.Plan}, {`"tables":`, r.Tables}, {`"schema":`, r.Schema}} {
		if len(f.v) == 0 {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, f.name...)
		b = appendStrings(b, f.v)
	}
	if r.Applied {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, `"applied":true`...)
	}
	return append(b, '}')
}

// RowSet is a row result the server encoded straight off its scan, not
// built as records: AppendJSON appends exactly what json.Marshal would
// write for the records it stands for.
type RowSet interface {
	AppendJSON(b []byte) []byte
}

// AppendJSON appends v's JSON encoding to b: hand-encoded when v is a row
// shape the server builds as records (a pointer to a run or result row, a
// slice of them, a *cql.Result, a *PageResult of them or a RowSet),
// json.Marshal's output otherwise. On error b is returned unchanged.
func AppendJSON(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case RowSet:
		return v.AppendJSON(b), nil
	case *query.RunRecord:
		if v != nil {
			return appendRun(b, v), nil
		}
	case *plan.ResultRow:
		if v != nil {
			return appendResultRow(b, v), nil
		}
	case []query.RunRecord:
		return appendRows(b, v, appendRun), nil
	case []plan.ResultRow:
		return appendRows(b, v, appendResultRow), nil
	case *cql.Result:
		if v != nil {
			return appendCQLResult(b, v), nil
		}
	case *PageResult[query.RunRecord]:
		if v != nil {
			return appendPage(b, v, appendRun), nil
		}
	case *PageResult[plan.ResultRow]:
		if v != nil {
			return appendPage(b, v, appendResultRow), nil
		}
	}
	// Not a row shape (or a nil pointer to one, which is null).
	data, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, data...), nil
}

// AppendResponse appends one complete envelope — what an
// json.Encoder would write for a Response, trailing newline included —
// carrying apiErr when it is non-nil and result otherwise. The result is
// encoded in place by AppendJSON, so a row result is written once, not
// marshaled and then copied into the envelope. On error b is returned
// unchanged.
func AppendResponse(b []byte, reqID string, elapsedMS int64, result any, apiErr *Error) ([]byte, error) {
	start := len(b)
	b = append(b, `{"ok":`...)
	b = strconv.AppendBool(b, apiErr == nil)
	b = append(b, `,"protocol":`...)
	b = strconv.AppendInt(b, Version, 10)
	if reqID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, reqID)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendInt(b, elapsedMS, 10)
	if apiErr != nil {
		b = append(b, `,"error":{"code":`...)
		b = appendString(b, string(apiErr.Code))
		b = append(b, `,"message":`...)
		b = appendString(b, apiErr.Message)
		if apiErr.RequestID != "" {
			b = append(b, `,"request_id":`...)
			b = appendString(b, apiErr.RequestID)
		}
		b = append(b, '}')
	} else {
		b = append(b, `,"result":`...)
		var err error
		if b, err = AppendJSON(b, result); err != nil {
			return b[:start], err
		}
	}
	return append(b, '}', '\n'), nil
}

// --- Decoding ---

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Decoder decodes row shapes by hand and everything else through
// encoding/json. The zero value is ready; reusing one Decoder for the
// lines of a stream lets them share its scratch space. A Decoder must not
// be used from two goroutines at once.
//
// Strings cost one allocation per input, not one per value: the first
// string decoded copies the whole input into one immutable string, and
// every plain literal — no escapes, all ASCII — becomes a substring of it.
// Only the others are built on their own, through scratch. So nothing
// decoded aliases the input, but every plain value pins the input's copy
// for as long as it is held.
type Decoder struct {
	b     []byte
	s     string // b as one immutable string, once a plain literal needs it
	i     int
	err   error // first failure; once set, i == len(b) so every loop ends
	depth int
	// opened is set by open and cleared by the next call that follows it:
	// no comma precedes a container's first member.
	opened bool
	// scratch holds the most recent string that needed unescaping.
	scratch []byte
	// plain is where in b the last string strBytes read starts when it is
	// a plain literal, -1 when it went through scratch.
	plain int
}

// Unmarshal decodes data into out like json.Unmarshal. Nothing it stores
// aliases data.
func (d *Decoder) Unmarshal(data []byte, out any) error {
	d.b, d.s, d.i, d.err, d.depth, d.opened = data, "", 0, nil, 0, false
	if !d.rowValue(out) {
		return json.Unmarshal(data, out)
	}
	d.end()
	return d.err
}

// DecodeResponse parses one envelope in a single scan, decoding its result
// member in place into out (nil discards it) instead of retaining it: the
// returned Response has no Result. An ok envelope without a result is an
// error when out is non-nil. Nothing decoded aliases body.
func DecodeResponse(body []byte, out any) (Response, error) {
	d := Decoder{b: body}
	var env Response
	sawResult := false
	if d.open('{') {
		for d.next('}') {
			switch field(d.key(), responseFields) {
			case 0:
				d.bool(&env.OK)
			case 1:
				d.int(&env.Protocol)
			case 2:
				d.str(&env.RequestID)
			case 3:
				d.int64(&env.ElapsedMS)
			case 4:
				if d.null() {
					env.Err = nil
					break
				}
				if env.Err == nil {
					env.Err = new(Error)
				}
				d.apiError(env.Err)
			case 5:
				if rv := reflect.ValueOf(out); sawResult && rv.Kind() == reflect.Pointer && !rv.IsNil() {
					// A repeated member replaces the earlier one (the
					// envelope's result is a RawMessage), it does not merge
					// into it. No server sends this; reflection is fine here.
					rv.Elem().SetZero()
				}
				sawResult = true
				d.result(out)
			default:
				d.skip()
			}
		}
	}
	d.end()
	if d.err == nil && env.OK && out != nil && !sawResult {
		d.err = errors.New("api: ok envelope carries no result")
	}
	return env, d.err
}

// result decodes the envelope's result member: in place for row shapes,
// by handing the member's bytes to encoding/json otherwise.
func (d *Decoder) result(out any) {
	if out == nil {
		d.skip()
		return
	}
	if d.rowValue(out) {
		return
	}
	d.ws()
	start := d.i
	d.skip()
	if d.err == nil {
		d.err = json.Unmarshal(d.b[start:d.i], out)
	}
}

// rowValue decodes the next value into out if out points at a row shape,
// and reports whether it does.
func (d *Decoder) rowValue(out any) bool {
	switch v := out.(type) {
	case *query.EventRecord:
		d.event(v)
	case *query.RunRecord:
		d.run(v)
	case *plan.ResultRow:
		d.resultRow(v)
	case *[]query.EventRecord:
		decodeSlice(d, v, (*Decoder).event)
	case *[]query.RunRecord:
		decodeSlice(d, v, (*Decoder).run)
	case *[]plan.ResultRow:
		decodeSlice(d, v, (*Decoder).resultRow)
	case *cql.Result:
		d.cqlResult(v)
	case *PageResult[query.EventRecord]:
		decodePage(d, v, (*Decoder).event)
	case *PageResult[query.RunRecord]:
		decodePage(d, v, (*Decoder).run)
	case *PageResult[plan.ResultRow]:
		decodePage(d, v, (*Decoder).resultRow)
	default:
		return false
	}
	return true
}

// Field names in declaration order; field returns an index into them.
var (
	responseFields = []string{"ok", "protocol", "request_id", "elapsed_ms", "error", "result"}
	errorFields    = []string{"code", "message", "request_id"}
	eventFields    = []string{"ts", "type", "source", "count", "raw", "attrs"}
	runFields      = []string{"jobid", "app", "user", "start", "end", "nodes", "exit_ok"}
	rowFields      = []string{"key", "columns"}
	pageFields     = []string{"items", "next_cursor"}
	cqlFields      = []string{"rows", "plan", "tables", "schema", "applied"}
)

// field maps an object key onto the struct field it names the way
// encoding/json does — an exact match, else the first case-insensitive
// one — or -1 for a key no field claims.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i
		}
	}
	return -1
}

func (d *Decoder) apiError(e *Error) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), errorFields) {
		case 0:
			d.str((*string)(&e.Code))
		case 1:
			d.str(&e.Message)
		case 2:
			d.str(&e.RequestID)
		default:
			d.skip()
		}
	}
}

func (d *Decoder) event(e *query.EventRecord) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), eventFields) {
		case 0:
			d.int64(&e.Time)
		case 1:
			d.str(&e.Type)
		case 2:
			d.str(&e.Source)
		case 3:
			d.int(&e.Count)
		case 4:
			d.str(&e.Raw)
		case 5:
			d.stringMap(&e.Attrs)
		default:
			d.skip()
		}
	}
}

func (d *Decoder) run(r *query.RunRecord) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), runFields) {
		case 0:
			d.str(&r.JobID)
		case 1:
			d.str(&r.App)
		case 2:
			d.str(&r.User)
		case 3:
			d.int64(&r.Start)
		case 4:
			d.int64(&r.End)
		case 5:
			decodeSlice(d, &r.Nodes, (*Decoder).str)
		case 6:
			d.bool(&r.ExitOK)
		default:
			d.skip()
		}
	}
}

func (d *Decoder) resultRow(r *plan.ResultRow) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), rowFields) {
		case 0:
			d.str(&r.Key)
		case 1:
			d.stringMap(&r.Columns)
		default:
			d.skip()
		}
	}
}

func (d *Decoder) cqlResult(r *cql.Result) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), cqlFields) {
		case 0:
			decodeSlice(d, &r.Rows, (*Decoder).resultRow)
		case 1:
			decodeSlice(d, &r.Plan, (*Decoder).str)
		case 2:
			decodeSlice(d, &r.Tables, (*Decoder).str)
		case 3:
			decodeSlice(d, &r.Schema, (*Decoder).str)
		case 4:
			d.bool(&r.Applied)
		default:
			d.skip()
		}
	}
}

func decodePage[T any](d *Decoder, p *PageResult[T], elem func(*Decoder, *T)) {
	if !d.open('{') {
		return
	}
	for d.next('}') {
		switch field(d.key(), pageFields) {
		case 0:
			decodeSlice(d, &p.Items, elem)
		case 1:
			d.str(&p.NextCursor)
		default:
			d.skip()
		}
	}
}

// decodeSlice decodes an array into *s as encoding/json does: null makes
// it nil, an empty array makes it empty and non-nil, and elements are
// decoded over whatever the slice already holds within its capacity (only
// a repeated key ever finds anything there).
func decodeSlice[T any](d *Decoder, s *[]T, elem func(*Decoder, *T)) {
	if !d.open('[') {
		*s = nil
		return
	}
	v := *s
	n := 0
	for d.next(']') {
		if n >= cap(v) {
			var zero T
			v = append(v[:cap(v)], zero)
		}
		if n >= len(v) {
			v = v[:n+1]
		}
		elem(d, &v[n])
		n++
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
}

// stringMap decodes an object into *m: null makes it nil, members are
// added to the map already there, a null member value is "".
func (d *Decoder) stringMap(m *map[string]string) {
	if !d.open('{') {
		*m = nil
		return
	}
	if *m == nil {
		*m = make(map[string]string)
	}
	for d.next('}') {
		k := d.string(d.key())
		var v string
		d.str(&v)
		(*m)[k] = v
	}
}

// fail records the first error and moves to the end of the input, where
// every read sees end-of-input and every loop stops.
func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("api: invalid JSON at offset %d: %s", d.i, msg)
	}
	d.i = len(d.b)
}

// peek returns the next byte without consuming it, 0 at the end of input.
func (d *Decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// ws skips whitespace and returns the byte after it, unconsumed.
func (d *Decoder) ws() byte {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the top-level value.
func (d *Decoder) end() {
	if d.ws(); d.i < len(d.b) {
		d.fail("data after top-level value")
	}
}

func (d *Decoder) lit(s string) {
	if len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return
	}
	d.fail("invalid literal")
}

// null consumes a null literal if the next value starts like one.
func (d *Decoder) null() bool {
	if d.ws() != 'n' {
		return false
	}
	d.lit("null")
	return true
}

// open consumes the bracket c that starts an object or array. It reports
// false on a null (consumed; the caller leaves a struct as it is and makes
// a map or slice nil) and on any other value, which is an error.
func (d *Decoder) open(c byte) bool {
	if d.ws() != c {
		if !d.null() {
			d.fail("value of the wrong type")
		}
		return false
	}
	d.i++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.opened = true
	return true
}

// next reports whether another member or element follows in the object or
// array that end closes, consuming the comma before it or the closing
// bracket. The first call after open expects no comma.
func (d *Decoder) next(end byte) bool {
	first := d.opened
	d.opened = false
	c := d.ws()
	switch {
	case c == end:
		d.i++
		d.depth--
		return false
	case first:
		return d.err == nil
	case c == ',':
		d.i++
		return true // a closing bracket here fails whatever reads the member
	}
	d.fail("expected ',' or closing bracket")
	return false
}

// key consumes an object key and its colon. The bytes alias the input or
// d.scratch and are good until the next string is read.
func (d *Decoder) key() []byte {
	k := d.strBytes()
	if d.ws() == ':' {
		d.i++
	} else {
		d.fail("expected ':' after object key")
	}
	return k
}

// skip consumes one value of any shape, checking its syntax as
// encoding/json checks even the values it ignores.
func (d *Decoder) skip() {
	switch c := d.ws(); {
	case c == '{':
		if !d.open('{') {
			return
		}
		for d.next('}') {
			d.key()
			d.skip()
		}
	case c == '[':
		if !d.open('[') {
			return
		}
		for d.next(']') {
			d.skip()
		}
	case c == '"':
		d.strBytes()
	case c == 't':
		d.lit("true")
	case c == 'f':
		d.lit("false")
	case c == 'n':
		d.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("unexpected character")
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes a number literal of any form.
func (d *Decoder) number() {
	if d.peek() == '-' {
		d.i++
	}
	d.digits(true)
	if d.peek() == '.' {
		d.i++
		d.digits(false)
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		d.digits(false)
	}
}

// digits consumes one or more digits; an integer part (leading) that
// starts with 0 is that 0 alone.
func (d *Decoder) digits(leading bool) {
	if !isDigit(d.peek()) {
		d.fail("expected a digit")
		return
	}
	if leading && d.peek() == '0' {
		d.i++
		return
	}
	for isDigit(d.peek()) {
		d.i++
	}
}

// int64 decodes an integer; null leaves *v alone. A fraction or exponent
// is an error even when the value is integral, as in encoding/json.
func (d *Decoder) int64(v *int64) {
	if d.null() {
		return
	}
	neg := d.ws() == '-'
	if neg {
		d.i++
	}
	if !isDigit(d.peek()) {
		d.fail("expected an integer")
		return
	}
	var u uint64
	if d.peek() == '0' {
		d.i++
	} else {
		for ; isDigit(d.peek()); d.i++ {
			c := uint64(d.b[d.i] - '0')
			if u > (math.MaxUint64-c)/10 {
				d.fail("integer out of range")
				return
			}
			u = u*10 + c
		}
	}
	switch d.peek() {
	case '.', 'e', 'E':
		d.fail("number is not an integer")
		return
	}
	switch {
	case !neg && u <= math.MaxInt64:
		*v = int64(u)
	case neg && u <= 1<<63:
		*v = -int64(u) // for u == 1<<63 the conversion wraps to MinInt64, which negates to itself
	default:
		d.fail("integer out of range")
	}
}

func (d *Decoder) int(v *int) {
	n := int64(*v)
	d.int64(&n)
	if int64(int(n)) != n {
		d.fail("integer out of range")
		return
	}
	*v = int(n)
}

// bool decodes true or false; null leaves *v alone.
func (d *Decoder) bool(v *bool) {
	switch d.ws() {
	case 't':
		d.lit("true")
		*v = true
	case 'f':
		d.lit("false")
		*v = false
	default:
		if !d.null() {
			d.fail("expected a boolean")
		}
	}
}

// str decodes a string; null leaves *v alone.
func (d *Decoder) str(v *string) {
	if d.null() {
		return
	}
	if b := d.strBytes(); d.err == nil {
		*v = d.string(b)
	}
}

// string returns what strBytes just read, b, as a string: a substring of
// the input's copy for a plain literal, a copy of d.scratch otherwise.
func (d *Decoder) string(b []byte) string {
	if d.plain < 0 || len(b) == 0 {
		return string(b)
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	return d.s[d.plain : d.plain+len(b)]
}

// strBytes consumes a string literal and returns its decoded bytes: a
// slice of the input when the literal is plain ASCII without escapes,
// d.scratch otherwise.
func (d *Decoder) strBytes() []byte {
	d.plain = -1
	if d.ws() != '"' {
		d.fail("expected a string")
		return nil
	}
	d.i++
	start := d.i
	if n := bytes.IndexByte(d.b[start:], '"'); n >= 0 && plainASCII(d.b[start:start+n]) {
		d.i += n + 1
		d.plain = start
		return d.b[start : start+n]
	}
	return d.unquote(start)
}

// plainASCII reports whether b holds neither a backslash, nor a control
// byte, nor a byte outside ASCII: a string literal's body that decodes to
// itself.
func plainASCII(b []byte) bool {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if w := word(b, i); w&msb|hasLess(w, 0x20)|hasByte(w, '\\') != 0 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// unquote finishes strBytes for a literal with escapes, non-ASCII bytes
// or no end, whose body starts at start and is read from d.i on. Like
// encoding/json it turns invalid UTF-8 and unpaired surrogate escapes
// into U+FFFD.
func (d *Decoder) unquote(start int) []byte {
	buf := append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.scratch = buf
			return buf
		case c == '\\':
			d.i++
			switch e := d.peek(); e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := d.hex4(d.i + 1)
				if r < 0 {
					d.fail("invalid \\u escape")
					return nil
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					// Only a valid pair combines; otherwise this escape
					// alone becomes U+FFFD and the next is read afresh.
					r2 := rune(-1)
					if d.i+2 < len(d.b) && d.b[d.i+1] == '\\' && d.b[d.i+2] == 'u' {
						r2 = d.hex4(d.i + 3)
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						d.i += 6
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				d.fail("invalid escape in string")
				return nil
			}
			d.i++
		case c < 0x20:
			d.fail("control character in string")
			return nil
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			buf = utf8.AppendRune(buf, r)
			d.i += size
		}
	}
	d.fail("unterminated string")
	return nil
}

// hex4 parses the four hex digits at d.b[at:], or returns -1.
func (d *Decoder) hex4(at int) rune {
	if at+4 > len(d.b) {
		return -1
	}
	var r rune
	for _, c := range d.b[at : at+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
