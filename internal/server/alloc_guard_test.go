//go:build !race

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// Allocation regression guard for the watch write path: publishing a
// single-row digest into a shard with parked subscribers runs on every
// acked store write, so it must not scale with subscriber count. One
// allocation: the digest's encoded lines, which the ring entries slice;
// the view and the encoding buffer are pooled, and fan-out belongs to
// the dispatcher, which reuses its snapshot buffer and allocates nothing
// in steady state. Excluded under -race (the detector adds bookkeeping
// allocations).
func TestHubNotifyAllocBudget(t *testing.T) {
	h := newHub(4096)
	defer h.close()
	for i := 0; i < 100; i++ {
		h.subscribe(model.GPUFail)
	}
	d := testDigest(model.GPUFail, time.Now().Unix(), "c0-0c0s0n0")
	for i := 0; i < 64; i++ {
		h.notify(d) // warm the ring and the dispatcher's snapshot buffer
	}
	if avg := testing.AllocsPerRun(200, func() { h.notify(d) }); avg > 1 {
		t.Fatalf("hub.notify allocates %.2f objects per single-row digest (budget 1); the watch write path must not scale allocations with subscribers", avg)
	}
}

// TestEventsPageAllocBudget: serving a late page of a paginated events
// request costs what the page holds, not what its hour holds — the scan
// starts at the cursor and stops at the limit. Re-reading, decoding and
// sorting the hour for every page (what eventsPage once did) allocates in
// proportion to the hour's rows, so the budget is set far below them.
func TestEventsPageAllocBudget(t *testing.T) {
	srv, _ := newHardenedServer(t, Config{})
	const limit, hourRows = 10, 1005
	base := time.Date(2017, 8, 23, 6, 0, 0, 0, time.UTC)
	events := make([]model.Event, hourRows)
	for i := range events {
		events[i] = model.Event{Time: base.Add(time.Duration(i) * time.Second), Type: model.MCE, Source: "c0-0c0s0n1", Count: 1, Raw: "mce"}
	}
	if err := ingest.NewLoader(srv.db).LoadEvents(events); err != nil {
		t.Fatal(err)
	}
	req := query.Request{Op: query.OpEvents, Context: query.Context{EventType: "MCE", From: base.Unix(), To: base.Add(time.Hour).Unix()}}
	ctx := context.Background()
	var cursor string
	got := 0
	for {
		res, aerr := srv.eventsPage(ctx, req, &api.Page{Limit: limit, Cursor: cursor})
		if aerr != nil {
			t.Fatal(aerr)
		}
		page := res.(*rowSet)
		got += page.rows
		page.release()
		if page.cursor == "" {
			break
		}
		cursor = page.cursor // ends up resuming just before the end of the hour
	}
	if got != hourRows {
		t.Fatalf("paged through %d events, loaded %d", got, hourRows)
	}
	avg := testing.AllocsPerRun(50, func() {
		res, aerr := srv.eventsPage(ctx, req, &api.Page{Limit: limit, Cursor: cursor})
		if aerr != nil {
			t.Fatal(aerr)
		}
		res.(*rowSet).release()
	})
	if avg > hourRows/8 {
		t.Fatalf("the last page allocates %.0f objects in an hour of %d rows (budget %d): a page must not re-read its hour", avg, hourRows, hourRows/8)
	}
}

// TestRowWireAllocBudget: row results leave the server encoded straight
// off the store's batches — no store.Row, model.Event, attribute map or
// record per row — so serving a row costs a fraction of an allocation,
// the request's fixed costs spread over its rows. One-shot, NDJSON
// stream, cursor page and CQL SELECT, through Server.ServeHTTP on a
// durable store, each at most 0.2 per row.
func TestRowWireAllocBudget(t *testing.T) {
	db, err := store.OpenDurable(store.Config{Nodes: 2, RF: 1, VNodes: 8, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := ingest.Bootstrap(db, 4); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2017, 8, 23, 6, 0, 0, 0, time.UTC)
	const hours, perHour = 2, 3000
	events := make([]model.Event, 0, hours*perHour)
	for i := 0; i < hours*perHour; i++ {
		events = append(events, model.Event{
			Time: base.Add(time.Duration(i) * 1200 * time.Millisecond), Type: model.MCE, Count: 1 + i%3,
			Source: fmt.Sprintf("c%d-0c%ds%dn%d", i%4, i%3, i%8, i%4),
			Raw:    fmt.Sprintf("Machine Check Exception: bank %d <status 0x%x> & more", i%9, i*7919),
			Attrs:  map[string]string{"bank": fmt.Sprint(i % 9), "cpu": fmt.Sprint(i % 32)},
		})
	}
	if err := ingest.NewLoader(db).LoadEvents(events); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	srv := NewWithConfig(query.New(db, eng), db, eng, Config{MaxPageLimit: hours * perHour})
	t.Cleanup(srv.Close)

	qc := query.Context{EventType: "MCE", From: base.Unix(), To: base.Add(hours * time.Hour).Unix()}
	events1 := query.Request{Op: query.OpEvents, Context: qc}
	partition := fmt.Sprintf("%d:MCE", base.Unix()/3600)
	for _, tc := range []struct {
		name, path string
		body       any
		rows       int
	}{
		{"oneshot", "/v1/query", api.QueryRequest{Request: events1}, hours * perHour},
		{"stream", "/v1/query/stream", api.QueryRequest{Request: events1}, hours * perHour},
		{"page", "/v1/query", api.QueryRequest{Request: events1, Page: &api.Page{Limit: 4000}}, 4000},
		{"cql", "/v1/cql", api.CQLRequest{Query: "SELECT * FROM event_by_time WHERE partition = '" + partition + "'"}, perHour},
		{"cql_stream", "/v1/cql/stream", api.CQLRequest{Query: "SELECT source, raw FROM event_by_time WHERE partition = '" + partition + "'"}, perHour},
	} {
		body, _ := json.Marshal(tc.body)
		serve := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK || bytes.Count(rec.Body.Bytes(), []byte(`"source":`)) != tc.rows {
				t.Fatalf("%s: HTTP %d, %d rows, want %d", tc.name, rec.Code, bytes.Count(rec.Body.Bytes(), []byte(`"source":`)), tc.rows)
			}
		}
		serve() // warm the pools
		if perRow := testing.AllocsPerRun(10, serve) / float64(tc.rows); perRow > 0.2 {
			t.Errorf("%s allocates %.3f objects per row served, budget 0.2", tc.name, perRow)
		} else {
			t.Logf("%s: %.3f allocations per row", tc.name, perRow)
		}
	}
}
