package enginetest

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Row results leave the server encoded straight off the store's batches;
// the tests here hold every way of delivering them to the same bytes on
// every store shape: the one-shot wire result equals what the in-process
// sinks (query.Engine's records, cql.Session's rows) marshal to, the
// NDJSON lines and the concatenated pages equal the one-shot, QUORUM reads
// equal ONE, and all of it is the same resident, durable, tiered and
// across a restart.

// rowRequest is one row-returning request: an events context or a CQL
// statement at a consistency level.
type rowRequest struct {
	name   string
	events *query.Context
	stmt   string
	cl     string
}

func rowRequests(h *Harness) []rowRequest {
	var out []rowRequest
	for name, qc := range eventContexts(h) {
		out = append(out, rowRequest{name: "events/" + name, events: &qc})
	}
	from, to := h.Window()
	typed := query.Context{Source: "c2-0c0s0n1", EventType: "MCE", From: from.Unix(), To: to.Unix()}
	out = append(out, rowRequest{name: "events/source_type", events: &typed})
	hour := from.Unix() / 3600
	for i, stmt := range []string{
		fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE'", hour),
		fmt.Sprintf("SELECT source, amount, raw FROM event_by_time WHERE partition = '%d:LUSTRE' LIMIT 40", hour+1),
		fmt.Sprintf("SELECT attr.ost, raw FROM event_by_time WHERE partition = '%d:LUSTRE' AND attr.ost = 'OST0012' AND key >= '%019d'", hour+1, from.Unix()+5500),
		fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE' AND (amount > '1' OR source = 'c2-0c0s0n1')", hour),
	} {
		for _, cl := range []string{"ONE", "QUORUM"} {
			out = append(out, rowRequest{name: fmt.Sprintf("cql%d/%s", i, cl), stmt: stmt, cl: cl})
		}
	}
	return out
}

// cqlRaw answers a CQL request over the wire and returns the result as it
// came, byte for byte.
func cqlRaw(t *testing.T, h *Harness, req api.CQLRequest) json.RawMessage {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(h.TS.URL+"/v1/cql", api.MediaTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := api.GetBuffer()
	defer buf.Release()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	env, err := api.DecodeResponse(buf.B, &raw)
	if err != nil || !env.OK {
		t.Fatalf("%s: %v %+v", req.Query, err, env.Err)
	}
	return raw
}

// sameJSON fails unless v marshals to want.
func sameJSON(t *testing.T, label string, want json.RawMessage, v any) {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the one-shot wire result:\n got %.300s\nwant %.300s", label, got, want)
	}
}

// rowResults answers every row request one-shot over the wire, checks the
// other deliveries against it, and returns the one-shot results by name.
func rowResults(t *testing.T, h *Harness) map[string]json.RawMessage {
	t.Helper()
	ctx := context.Background()
	out := map[string]json.RawMessage{}
	for _, rq := range rowRequests(h) {
		if rq.events != nil {
			req := query.Request{Op: query.OpEvents, Context: *rq.events}
			oneShot, err := h.HTTP(req)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := h.Direct(req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(direct, oneShot) {
				t.Fatalf("%s: the engine's records differ from the wire:\nrecords %.300s\nwire    %.300s", rq.name, direct, oneShot)
			}
			var streamed []query.EventRecord
			if err := h.Client.StreamEvents(ctx, *rq.events, func(e query.EventRecord) error {
				streamed = append(streamed, e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			assertBytesEqualOneShot(t, oneShot, streamed, rq.name+" stream")
			assertBytesEqualOneShot(t, oneShot, pageThrough(t, h, *rq.events, 97, nil), rq.name+" pages")
			out[rq.name] = oneShot
			continue
		}
		oneShot := cqlRaw(t, h, api.CQLRequest{Query: rq.stmt, Consistency: rq.cl})
		cl := store.One
		if rq.cl == "QUORUM" {
			cl = store.Quorum
		}
		inProcess, err := (&cql.Session{DB: h.DB, CL: cl, Eng: h.Comp}).Execute(rq.stmt)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, rq.name+" in-process rows", oneShot, inProcess)
		sess := h.Client.Session(rq.cl)
		var streamed, paged []cql.ResultRow
		if err := sess.Stream(ctx, rq.stmt, func(r cql.ResultRow) error {
			streamed = append(streamed, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sameJSON(t, rq.name+" stream", oneShot, &cql.Result{Rows: streamed})
		if err := sess.Each(ctx, rq.stmt, 13, func(r cql.ResultRow) error {
			paged = append(paged, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sameJSON(t, rq.name+" pages", oneShot, &cql.Result{Rows: paged})
		out[rq.name] = oneShot
	}
	for name, res := range out {
		if base, ok := strings.CutSuffix(name, "/ONE"); ok && !bytes.Equal(res, out[base+"/QUORUM"]) {
			t.Fatalf("%s: QUORUM rows differ from ONE:\nONE    %.300s\nQUORUM %.300s", base, res, out[base+"/QUORUM"])
		}
	}
	return out
}

// sameRowResults fails unless two stores answered every row request alike.
func sameRowResults(t *testing.T, label string, want, got map[string]json.RawMessage) {
	t.Helper()
	for name, w := range want {
		if !bytes.Equal(w, got[name]) {
			t.Fatalf("%s: %s differs:\nwant %.300s\n got %.300s", label, name, w, got[name])
		}
	}
}

// TestParentCursorResumes: a cursor is a data position in a fixed format,
// so a token written by hand the way the previous server minted it —
// base64url over its JSON — resumes exactly after the row it names.
func TestParentCursorResumes(t *testing.T) {
	h := New(t)
	ctx := context.Background()
	from, to := h.Window()
	qc := query.Context{From: from.Unix(), To: to.Unix()}
	all, err := h.HTTP(query.Request{Op: query.OpEvents, Context: qc})
	if err != nil {
		t.Fatal(err)
	}
	var events []query.EventRecord
	if err := json.Unmarshal(all, &events); err != nil {
		t.Fatal(err)
	}
	i := len(events) / 2
	e := events[i]
	token := base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf(`{"v":1,"op":"events","hour":%d,"key":%q,"disc":%q}`,
		e.Time/3600, store.EncodeTS(e.Time)+":"+e.Source, e.Type)))
	rest := events[:i+1]
	for token != "" {
		items, next, err := h.Client.EventsPage(ctx, qc, 1000, token)
		if err != nil {
			t.Fatal(err)
		}
		rest, token = append(rest, items...), next
	}
	assertBytesEqualOneShot(t, all, rest, "events resumed from a hand-minted cursor")

	stmt := fmt.Sprintf("SELECT source, raw FROM event_by_time WHERE partition = '%d:MCE'", from.Unix()/3600)
	full, err := h.Client.Session("ONE").Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	j := len(full.Rows) / 3
	token = base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf(`{"v":1,"op":"cql","key":%q,"n":%d}`, full.Rows[j].Key, j+1)))
	rows := full.Rows[:j+1]
	for token != "" {
		items, next, err := h.Client.Session("ONE").Page(ctx, stmt, 50, token)
		if err != nil {
			t.Fatal(err)
		}
		rows, token = append(rows, items...), next
	}
	sameJSON(t, "CQL rows resumed from a hand-minted cursor", cqlRaw(t, h, api.CQLRequest{Query: stmt}), &cql.Result{Rows: rows})
}
