package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"hpclog/internal/cql"
	"hpclog/internal/plan"
	"hpclog/internal/query"
)

// encoding/json is the reference here and nowhere else on the row path:
// every test below checks the hand codec against it byte for byte
// (encoding) or value for value (decoding).

// sameEncoding checks AppendJSON(v) == json.Marshal(v) and returns the
// bytes.
func sameEncoding(t *testing.T, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%T): %v", v, err)
	}
	got, err := AppendJSON(nil, v)
	if err != nil {
		t.Fatalf("AppendJSON(%T): %v", v, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%T) differs from json.Marshal:\n got %s\nwant %s", v, got, want)
	}
	return got
}

// pooled copies doc into a pooled Buffer, as the SDK reads a body.
func pooled(doc []byte) *Buffer {
	buf := GetBuffer()
	buf.B = append(buf.B[:0], doc...)
	return buf
}

// scribble overwrites a decoded input and releases it: whatever was
// decoded from it must survive, since no decoded value aliases it.
func scribble(buf *Buffer) {
	for i := range buf.B {
		buf.B[i] = 0xA5
	}
	buf.Release()
}

// sameDecoding checks that the hand decoder and json.Unmarshal agree on
// doc decoded into a fresh T: both fail, or both produce the same value —
// also once the pooled buffer the hand decoder read was scribbled over
// and released.
func sameDecoding[T any](t *testing.T, doc []byte) {
	t.Helper()
	var want, got T
	werr := json.Unmarshal(doc, &want)
	buf := pooled(doc)
	gerr := new(Decoder).Unmarshal(buf.B, &got)
	scribble(buf)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T from %q: json.Unmarshal error %v, hand decoder error %v", want, doc, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T from %q:\n got %#v\nwant %#v", want, doc, got, want)
	}
}

// sameDecodingAllShapes decodes doc into every shape the codec handles.
func sameDecodingAllShapes(t *testing.T, doc []byte) {
	t.Helper()
	sameDecoding[query.EventRecord](t, doc)
	sameDecoding[query.RunRecord](t, doc)
	sameDecoding[plan.ResultRow](t, doc)
	sameDecoding[[]query.EventRecord](t, doc)
	sameDecoding[[]query.RunRecord](t, doc)
	sameDecoding[[]plan.ResultRow](t, doc)
	sameDecoding[cql.Result](t, doc)
	sameDecoding[PageResult[query.EventRecord]](t, doc)
	sameDecoding[PageResult[query.RunRecord]](t, doc)
	sameDecoding[PageResult[plan.ResultRow]](t, doc)
	sameEnvelope[[]query.EventRecord](t, doc)
	sameEnvelope[cql.Result](t, doc)
	sameEnvelope[map[string]string](t, doc) // a payload the codec hands to encoding/json
}

// sameEnvelope checks DecodeResponse against the two-step decode it
// replaced: the envelope, then its RawMessage result.
func sameEnvelope[T any](t *testing.T, doc []byte) {
	t.Helper()
	var want, got T
	var wenv Response
	werr := json.Unmarshal(doc, &wenv)
	if werr == nil && len(wenv.Result) > 0 {
		werr = json.Unmarshal(wenv.Result, &want)
	} else if werr == nil && wenv.OK {
		werr = json.Unmarshal(nil, &want) // an ok envelope must carry a result
	}
	buf := pooled(doc)
	genv, gerr := DecodeResponse(buf.B, &got)
	scribble(buf)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("envelope of %T from %q: reference error %v, DecodeResponse error %v", want, doc, werr, gerr)
	}
	if werr != nil {
		return
	}
	wenv.Result = nil
	if !reflect.DeepEqual(wenv, genv) {
		t.Fatalf("envelope from %q:\n got %#v (error %#v)\nwant %#v (error %#v)", doc, genv, genv.Err, wenv, wenv.Err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("envelope result %T from %q:\n got %#v\nwant %#v", want, doc, got, want)
	}
}

// gen draws values from a byte string, so the fuzzer's mutations of the
// bytes become mutations of the values.
type gen struct{ data []byte }

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return c
}

// awkward are the string fragments the encoder must escape or replace.
var awkward = []string{
	"", "MCE", "c0-0c0s0n0", "<script>&amp;</script>", "\u2028", "\u2029", "\xff", "\xc3", "\xed\xa0\x80",
	"\x00", "\x1f", "\b\f\n\r\t", `"`, `\`, "/", "\x7f", "é", "日本", "😀", "a b", `\u0041`,
}

func (g *gen) str() string {
	var sb strings.Builder
	for n := g.byte() % 4; n > 0; n-- {
		if c := g.byte(); c < 200 {
			sb.WriteString(awkward[int(c)%len(awkward)])
		} else {
			sb.WriteByte(g.byte()) // any byte, valid UTF-8 or not
		}
	}
	return sb.String()
}

var awkwardInts = []int64{0, 1, -1, 42, -1 << 63, 1<<63 - 1, 1e18, -1e18, 1501426800, 1 << 31, -(1 << 31)}

func (g *gen) int() int64 { return awkwardInts[int(g.byte())%len(awkwardInts)] }

// strMap returns nil, empty, or a few entries.
func (g *gen) strMap() map[string]string {
	switch n := g.byte() % 5; n {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	default:
		m := make(map[string]string)
		for ; n > 1; n-- {
			m[g.str()] = g.str()
		}
		return m
	}
}

func (g *gen) strs() []string {
	switch n := g.byte() % 5; n {
	case 0:
		return nil
	case 1:
		return []string{}
	default:
		var s []string
		for ; n > 1; n-- {
			s = append(s, g.str())
		}
		return s
	}
}

func (g *gen) event() query.EventRecord {
	return query.EventRecord{Time: g.int(), Type: g.str(), Source: g.str(), Count: int(g.int()), Raw: g.str(), Attrs: g.strMap()}
}

func (g *gen) run() query.RunRecord {
	return query.RunRecord{JobID: g.str(), App: g.str(), User: g.str(), Start: g.int(), End: g.int(), Nodes: g.strs(), ExitOK: g.byte()%2 == 1}
}

func (g *gen) row() plan.ResultRow { return plan.ResultRow{Key: g.str(), Columns: g.strMap()} }

// rows returns nil, empty, or a few rows.
func rows[T any](g *gen, one func() T) []T {
	switch n := g.byte() % 5; n {
	case 0:
		return nil
	case 1:
		return []T{}
	default:
		var s []T
		for ; n > 1; n-- {
			s = append(s, one())
		}
		return s
	}
}

// variants are rewrites of a valid document that a decoder must still
// treat as encoding/json does: every truncation, whitespace between all
// tokens, and the members re-sorted with an unknown one added.
func variants(t *testing.T, doc []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for i := range doc {
		out = append(out, doc[:i])
	}
	var padded bytes.Buffer
	if err := json.Indent(&padded, doc, " \t", "\r\n "); err != nil {
		t.Fatalf("indent %q: %v", doc, err)
	}
	out = append(out, append([]byte(" \n\t"), append(padded.Bytes(), " \r\n"...)...))
	var generic any
	if err := json.Unmarshal(doc, &generic); err != nil {
		t.Fatalf("generic decode %q: %v", doc, err)
	}
	if m, ok := generic.(map[string]any); ok {
		m["zz_unknown"] = map[string]any{"nested": []any{1.5, "x", nil, true}}
		m["Aa_unknown"] = "first"
		reordered, err := json.Marshal(m) // map keys sort, which is not declaration order
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reordered)
	}
	return out
}

// hostile are documents no server sends. Each is decoded into every
// shape, so most are type mismatches for most shapes.
var hostile = []string{
	``, ` `, `null`, ` null `, `nul`, `nullx`, `true`, `0`, `""`, `{}`, `[]`, `{`, `[`, `}`, `]`, `{]`, `[}`, `[null]`, `[{}]`, `[{},]`, `[,]`, `{,}`,
	`{"ts":1}{}`, `{"ts":1} x`, `{"ts":1,}`, `{"ts" 1}`, `{"ts":}`, `{ts:1}`, `{"ts":1 "type":"a"}`, `{"a":1,"a":2}`,
	// Numbers into integer fields.
	`{"ts":-0}`, `{"ts":01}`, `{"ts":1.0}`, `{"ts":1e2}`, `{"ts":1E+2}`, `{"ts":-}`, `{"ts":+1}`, `{"ts":.5}`, `{"ts":1.}`, `{"ts":0x10}`,
	`{"ts":9223372036854775807}`, `{"ts":9223372036854775808}`, `{"ts":-9223372036854775808}`, `{"ts":-9223372036854775809}`,
	`{"ts":123456789012345678901234567890}`, `{"count":9223372036854775807}`, `{"ts":"1"}`, `{"ts":true}`, `{"ts":null,"count":null}`, `{"ts":[1]}`,
	// Strings.
	`{"type":"a\u0041\n\"\\\/\b\f\r\t"}`, `{"type":"\ud83d\ude00"}`, `{"type":"\ud83d"}`, `{"type":"\ud83dx"}`, `{"type":"\ud83d\u0041"}`,
	`{"type":"\ude00\ud83d"}`, `{"type":"\ud83d\ud83d\ude00"}`, `{"type":"\uD83D\uDE00"}`, `{"type":"\u12"}`, `{"type":"\u12zz"}`, `{"type":"\x"}`, `{"type":"\`,
	"{\"type\":\"a\x01b\"}", "{\"type\":\"a\nb\"}", "{\"type\":\"\xff\xfe\"}", "{\"type\":\"\xe2\x80\"}", "{\"type\":\"\xed\xa0\x80\"}", "{\"type\":\"é\u2028\"}",
	`{"type":"unterminated}`, `{"type":null}`, `{"type":1}`, `{"type":{}}`, `{"type":"a","type":null}`, `{"type":"a","type":"b"}`,
	// Keys: case folding, escapes, duplicates, the Kelvin sign and long s that fold to k and s.
	`{"TS":5,"Type":"x","SOURCE":"y"}`, `{"t\u0073":7}`, `{"\u0074s":7}`, `{"tſ":7}`, `{"ſource":"x"}`, `{"Key":"k","COLUMNS":{"a":"b"}}`, "{\"\u212aey\":\"kelvin\"}",
	`{"ts":1,"TS":2,"tS":3}`, `{"":1}`, `{"ts ":1}`, `{" ts":1}`, `{"t\u0000s":1}`, `{"\ud83d":1}`,
	// Maps and slices: null, empty, merging on a repeated key, null members.
	`{"attrs":null}`, `{"attrs":{}}`, `{"attrs":{"a":null}}`, `{"attrs":{"a":1}}`, `{"attrs":[]}`, `{"attrs":{"a":"1"},"attrs":{"b":"2"}}`, `{"attrs":{"a":"1"},"attrs":null}`,
	`{"attrs":{"a":"1","a":"2"}}`, `{"attrs":{"\u0061":"1","a":"2"}}`, `{"columns":null}`, `{"columns":{}}`, `{"columns":{"x":"1"},"columns":{"y":"2"}}`,
	`{"nodes":null}`, `{"nodes":[]}`, `{"nodes":[null]}`, `{"nodes":["a",null,"b"]}`, `{"nodes":["a","b"],"nodes":[null]}`, `{"nodes":["a","b","c"],"nodes":["x"],"nodes":[null,null,null]}`,
	`{"nodes":[1]}`, `{"nodes":{}}`, `{"nodes":"a"}`, `{"exit_ok":true}`, `{"exit_ok":null}`, `{"exit_ok":1}`, `{"exit_ok":"true"}`, `{"exit_ok":tru}`, `{"exit_ok":falsey}`,
	// Row slices and wrappers.
	`[{"ts":1},null,{"ts":3}]`, `[{"ts":1},[]]`, `[1]`, `["a"]`, `[[]]`, `{"items":null}`, `{"items":[]}`, `{"items":[null]}`, `{"items":{}}`, `{"items":[{"ts":1}],"next_cursor":"abc"}`,
	`{"items":[{"ts":1,"type":"a"}],"items":[{"type":"b"}]}`, `{"next_cursor":null}`, `{"next_cursor":5}`, `{"NEXT_CURSOR":"x","Items":[]}`,
	`{"rows":[{"key":"k","columns":{"a":"b"}}],"plan":["p"],"tables":[],"schema":null,"applied":true}`, `{"rows":[{"key":"k","columns":{"a":"b"}}],"rows":[{"columns":{"c":"d"}}]}`, `{"applied":"yes"}`,
	// Envelopes.
	`{"ok":true,"protocol":1,"request_id":"r","elapsed_ms":3,"result":[{"ts":1,"type":"MCE","source":"s","count":1}]}`,
	`{"ok":true,"protocol":1,"result":null}`, `{"ok":true,"protocol":1}`, `{"ok":true,"result":[],"result":[{"ts":2}]}`, `{"ok":true,"result":[{"ts":2}],"result":[]}`,
	`{"ok":true,"result":{"rows":[{"key":"a"}]},"result":{"applied":true}}`, `{"ok":true,"result":{"a":"b"},"result":{"c":"d"}}`, `{"result":[{"ts":1}],"ok":true}`,
	`{"ok":false,"protocol":1,"error":{"code":"bad_request","message":"m","request_id":"r","status":7}}`, `{"ok":false,"error":null}`, `{"ok":false,"error":{"code":"a"},"error":{"message":"b"}}`,
	`{"ok":false,"error":{"code":"a"},"error":null}`, `{"ok":false,"error":"boom"}`, `{"ok":false,"error":{"code":5}}`, `{"ok":false,"error":{"Code":"x","MESSAGE":"y"}}`, `{"ok":false,"result":"garbage"}`,
	`{"ok":"yes"}`, `{"ok":null,"protocol":null,"request_id":null,"elapsed_ms":null}`, `{"protocol":1.5}`, `{"elapsed_ms":"3"}`, `{"OK":true,"Result":[]}`, `{"ok":true,"result":[]}  trailing`,
	// Unknown members of every shape, nested deeper than any known one.
	`{"x":{"y":[1,2,{"z":[true,false,null,"s",-1.5e-3]}]},"ts":4}`, `{"x":[1,2,}`, `{"x":{"y":}}`, `{"x":tru}`, `{"x":"\u12"}`, `{"x":1.}`, `{"x":-}`, `{"x":[}`, `{"x":{"a" "b"}}`, `{"x":01}`,
}

func TestWireCodecHostileInput(t *testing.T) {
	for _, doc := range hostile {
		sameDecodingAllShapes(t, []byte(doc))
	}
	// Nesting at, and one past, encoding/json's depth limit, inside an
	// unknown member (the only place the codec meets unbounded depth).
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		doc := `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `,"ts":1}`
		sameDecoding[query.EventRecord](t, []byte(doc))
		sameDecoding[[]query.EventRecord](t, []byte("["+doc+"]"))
	}
}

// checkGenerated runs the differential checks on values drawn from seed.
func checkGenerated(t *testing.T, seed []byte) {
	g := &gen{data: seed}
	e, r, row := g.event(), g.run(), g.row()
	events, runs, resultRows := rows(g, g.event), rows(g, g.run), rows(g, g.row)
	res := cql.Result{Rows: rows(g, g.row), Plan: g.strs(), Tables: g.strs(), Schema: g.strs(), Applied: g.byte()%2 == 1}
	cursor := g.str()
	for _, v := range []any{
		&e, &r, &row, events, runs, resultRows, &res,
		&PageResult[query.EventRecord]{Items: events, NextCursor: cursor},
		&PageResult[query.RunRecord]{Items: runs, NextCursor: cursor},
		&PageResult[plan.ResultRow]{Items: resultRows, NextCursor: cursor},
	} {
		doc := sameEncoding(t, v)
		sameDecodingAllShapes(t, doc)
		for _, variant := range variants(t, doc) {
			sameDecodingAllShapes(t, variant)
		}
	}

	// The envelope around a result and around an error, against what an
	// json.Encoder writes for the Response struct.
	reqID, elapsed := g.str(), g.int()
	for _, result := range []any{events, &res, &PageResult[plan.ResultRow]{Items: resultRows, NextCursor: cursor}, map[string]int{"<n>": 1}} {
		raw, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		sameResponse(t, Response{OK: true, Protocol: Version, RequestID: reqID, ElapsedMS: elapsed, Result: raw}, result, nil)
	}
	apiErr := &Error{Code: ErrorCode(g.str()), Message: g.str(), RequestID: reqID}
	sameResponse(t, Response{Protocol: Version, RequestID: reqID, ElapsedMS: elapsed, Err: apiErr}, nil, apiErr)
}

func sameResponse(t *testing.T, env Response, result any, apiErr *Error) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(env); err != nil {
		t.Fatal(err)
	}
	got, err := AppendResponse(nil, env.RequestID, env.ElapsedMS, result, apiErr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendResponse differs from json.Encoder:\n got %s\nwant %s", got, want.Bytes())
	}
	sameDecodingAllShapes(t, got)
}

func TestWireCodecNilPointers(t *testing.T) {
	for _, v := range []any{
		(*query.EventRecord)(nil), (*query.RunRecord)(nil), (*plan.ResultRow)(nil), (*cql.Result)(nil),
		(*PageResult[query.EventRecord])(nil), (*PageResult[query.RunRecord])(nil), (*PageResult[plan.ResultRow])(nil), nil,
	} {
		if got := sameEncoding(t, v); string(got) != "null" {
			t.Fatalf("%T encodes as %s", v, got)
		}
	}
}

func TestWireCodecGenerated(t *testing.T) {
	seed := make([]byte, 0, 512)
	for i := 0; i < 40; i++ {
		// A cheap deterministic byte stream; every value of i yields
		// different rows.
		seed = seed[:0]
		x := uint32(i)*2654435761 + 1
		for j := 0; j < 512; j++ {
			x = x*1664525 + 1013904223
			seed = append(seed, byte(x>>24))
		}
		checkGenerated(t, seed)
	}
}

// FuzzWireRowCodec is the codec's contract with encoding/json. seed
// drives the value generator (encoder equality; decoder equality on the
// encoding, its truncations, its padded and its reordered form); doc is
// decoded as is into every shape by both decoders. Every hand decode reads
// a pooled buffer that is scribbled over and released before its result
// is compared.
func FuzzWireRowCodec(f *testing.F) {
	for _, doc := range hostile {
		f.Add([]byte(doc), []byte(doc))
	}
	f.Add([]byte{2, 1, 3, 4, 3, 1, 7, 200, 0xff, 2, 5, 6, 3, 9, 9, 4, 4}, []byte(`{"ts":1,"attrs":{"k":"v"}}`))
	f.Fuzz(func(t *testing.T, seed, doc []byte) {
		checkGenerated(t, seed)
		sameDecodingAllShapes(t, doc)
	})
}

// --- Golden bytes: the protocol as it looks on the wire. ---

var goldenEvents = []query.EventRecord{
	{Time: 1501426800, Type: "MCE", Source: "c0-0c0s0n0", Count: 2, Raw: "Machine Check <bank 4> & more", Attrs: map[string]string{"cpu": "12", "bank": "4"}},
	{Time: 1501426801, Type: "LUSTRE", Source: "c1-0c2s7n3", Count: 1},
}

func TestGoldenEnvelope(t *testing.T) {
	got, err := AppendResponse(nil, "req-1", 12, goldenEvents, nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"ok":true,"protocol":1,"request_id":"req-1","elapsed_ms":12,"result":[` +
		`{"ts":1501426800,"type":"MCE","source":"c0-0c0s0n0","count":2,"raw":"Machine Check \u003cbank 4\u003e \u0026 more","attrs":{"bank":"4","cpu":"12"}},` +
		`{"ts":1501426801,"type":"LUSTRE","source":"c1-0c2s7n3","count":1}]}` + "\n"
	if string(got) != want {
		t.Fatalf("envelope bytes:\n got %s\nwant %s", got, want)
	}
	var back []query.EventRecord
	env, err := DecodeResponse(got, &back)
	if err != nil || !env.OK || env.RequestID != "req-1" || env.ElapsedMS != 12 || !reflect.DeepEqual(back, goldenEvents) {
		t.Fatalf("round trip: env %+v err %v rows %+v", env, err, back)
	}

	got, err = AppendResponse(nil, "req-2", 0, nil, &Error{Code: CodeBadCursor, Message: `cursor "x" is stale`, RequestID: "req-2"})
	if err != nil {
		t.Fatal(err)
	}
	const wantErr = `{"ok":false,"protocol":1,"request_id":"req-2","elapsed_ms":0,"error":{"code":"bad_cursor","message":"cursor \"x\" is stale","request_id":"req-2"}}` + "\n"
	if string(got) != wantErr {
		t.Fatalf("error envelope bytes:\n got %s\nwant %s", got, wantErr)
	}
}

func TestGoldenPage(t *testing.T) {
	page := &PageResult[plan.ResultRow]{
		Items: []plan.ResultRow{
			{Key: "0000000001501426800:c0-0c0s0n0", Columns: map[string]string{"source": "c0-0c0s0n0", "amount": "2"}},
			{Key: "0000000001501426801:c1-0c2s7n3"},
		},
		NextCursor: "eyJ2IjoxfQ",
	}
	got, err := AppendJSON(nil, page)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"items":[{"key":"0000000001501426800:c0-0c0s0n0","columns":{"amount":"2","source":"c0-0c0s0n0"}},` +
		`{"key":"0000000001501426801:c1-0c2s7n3","columns":null}],"next_cursor":"eyJ2IjoxfQ"}`
	if string(got) != want {
		t.Fatalf("page bytes:\n got %s\nwant %s", got, want)
	}
	if last, _ := AppendJSON(nil, &PageResult[query.RunRecord]{Items: []query.RunRecord{}}); string(last) != `{"items":[]}` {
		t.Fatalf("exhausted page bytes: %s", last)
	}
}

func TestGoldenNDJSON(t *testing.T) {
	var stream []byte
	for i := range goldenEvents {
		stream, _ = AppendJSON(stream, &goldenEvents[i])
		stream = append(stream, '\n')
	}
	stream, _ = AppendJSON(stream, StreamTrailer{Trailer: true, Rows: 2})
	stream = append(stream, '\n')
	const want = `{"ts":1501426800,"type":"MCE","source":"c0-0c0s0n0","count":2,"raw":"Machine Check \u003cbank 4\u003e \u0026 more","attrs":{"bank":"4","cpu":"12"}}` + "\n" +
		`{"ts":1501426801,"type":"LUSTRE","source":"c1-0c2s7n3","count":1}` + "\n" +
		`{"trailer":true,"rows":2}` + "\n"
	if string(stream) != want {
		t.Fatalf("stream bytes:\n got %s\nwant %s", stream, want)
	}
	var dec Decoder
	for i, line := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))[:2] {
		var e query.EventRecord
		if err := dec.Unmarshal(line, &e); err != nil || !reflect.DeepEqual(e, goldenEvents[i]) {
			t.Fatalf("line %d: %+v, %v", i, e, err)
		}
	}
}

// TestWordScans holds the word-at-a-time scans to their byte-at-a-time
// definitions: every byte value, at every position of a word and of the
// tail.
func TestWordScans(t *testing.T) {
	for c := 0; c < 256; c++ {
		plain := c < utf8.RuneSelf && plainByte[c]
		ascii := c != '\\' && c >= 0x20 && c < utf8.RuneSelf
		for p := 0; p < 19; p++ {
			b := []byte(strings.Repeat("a", 19))
			b[p] = byte(c)
			want := len(b)
			if !plain {
				want = p
			}
			if got := plainPrefix(string(b)); got != want {
				t.Fatalf("plainPrefix with byte %#x at %d = %d, want %d", c, p, got, want)
			}
			if got := plainASCII(b); got != ascii {
				t.Fatalf("plainASCII with byte %#x at %d = %v, want %v", c, p, got, ascii)
			}
		}
	}
}
