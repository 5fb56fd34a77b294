//go:build !race

package server

import (
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
)

// Allocation regression guard for the watch write path: publishing a
// single-row digest into a shard with parked subscribers runs on every
// acked store write, so it must stay O(rows) — one decoded tail entry —
// regardless of subscriber count. The per-notify budget covers the
// entries slice and the row decode; fan-out belongs to the dispatcher,
// which reuses its snapshot buffer and allocates nothing in steady
// state. Excluded under -race (the detector adds bookkeeping
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
	if avg := testing.AllocsPerRun(200, func() { h.notify(d) }); avg > 4 {
		t.Fatalf("hub.notify allocates %.2f objects per single-row digest (budget 4); the watch write path must not scale allocations with subscribers", avg)
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
	qc := query.Context{EventType: "MCE", From: base.Unix(), To: base.Add(time.Hour).Unix()}
	var cursor string
	got := 0
	for {
		res, aerr := srv.eventsPage(qc, &api.Page{Limit: limit, Cursor: cursor})
		if aerr != nil {
			t.Fatal(aerr)
		}
		page := res.(*api.PageResult[query.EventRecord])
		if got += len(page.Items); page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor // ends up resuming just before the end of the hour
	}
	if got != hourRows {
		t.Fatalf("paged through %d events, loaded %d", got, hourRows)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, aerr := srv.eventsPage(qc, &api.Page{Limit: limit, Cursor: cursor}); aerr != nil {
			t.Fatal(aerr)
		}
	})
	if avg > hourRows/4 {
		t.Fatalf("the last page allocates %.0f objects in an hour of %d rows (budget %d): a page must not re-read its hour", avg, hourRows, hourRows/4)
	}
}
