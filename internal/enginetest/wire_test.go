package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/testutil"
)

// pageThrough collects every page of an events request, returning the
// concatenated records and how many pages it took. between, when
// non-nil, runs after each page — the hook the compaction/restart tests
// use to disturb the store mid-pagination.
func pageThrough(t *testing.T, h *Harness, qc query.Context, pageSize int,
	between func(page int)) []query.EventRecord {
	t.Helper()
	out := []query.EventRecord{}
	cursor := ""
	for page := 0; ; page++ {
		items, next, err := h.Client.EventsPage(context.Background(), qc, pageSize, cursor)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		if len(items) > pageSize {
			t.Fatalf("page %d has %d items, limit %d", page, len(items), pageSize)
		}
		out = append(out, items...)
		if next == "" {
			return out
		}
		cursor = next
		if between != nil {
			between(page)
		}
	}
}

// assertBytesEqualOneShot asserts that records re-marshal to exactly the
// one-shot wire result.
func assertBytesEqualOneShot(t *testing.T, oneShot json.RawMessage, records []query.EventRecord, label string) {
	t.Helper()
	got, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(oneShot)) {
		t.Fatalf("%s: concatenated result differs from one-shot\n got: %.300s\nwant: %.300s", label, got, oneShot)
	}
}

// eventContexts enumerates the request shapes pagination and streaming
// must reproduce: single-type, all-types (hour-merged across type
// partitions), and per-source.
func eventContexts(h *Harness) map[string]query.Context {
	from, to := h.Window()
	base := query.Context{From: from.Unix(), To: to.Unix()}
	byType := base
	byType.EventType = "MCE"
	bySource := base
	bySource.Source = "c2-0c0s0n1"
	return map[string]query.Context{"by_type": byType, "all_types": base, "by_source": bySource}
}

// TestPaginatedEventsMatchOneShot: for every request shape, paginated
// pages concatenate to exactly the one-shot result (memtable-resident stack).
func TestPaginatedEventsMatchOneShot(t *testing.T) {
	h := New(t)
	for label, qc := range eventContexts(h) {
		t.Run(label, func(t *testing.T) {
			oneShot, err := h.HTTP(query.Request{Op: query.OpEvents, Context: qc})
			if err != nil {
				t.Fatal(err)
			}
			var probe []query.EventRecord
			if err := json.Unmarshal(oneShot, &probe); err != nil {
				t.Fatal(err)
			}
			n := len(probe)
			// Page counts around 13, 3, and 1 — the page size scales with
			// the result so the test stays O(result), not O(result^2).
			for _, pageSize := range []int{n/13 + 1, n/3 + 1, n + 1} {
				records := pageThrough(t, h, qc, pageSize, nil)
				assertBytesEqualOneShot(t, oneShot, records, fmt.Sprintf("%s pageSize=%d", label, pageSize))
			}
		})
	}
}

// TestStreamedEventsMatchOneShot: NDJSON lines concatenate to exactly
// the one-shot result for every request shape.
func TestStreamedEventsMatchOneShot(t *testing.T) {
	h := New(t)
	for label, qc := range eventContexts(h) {
		t.Run(label, func(t *testing.T) {
			oneShot, err := h.HTTP(query.Request{Op: query.OpEvents, Context: qc})
			if err != nil {
				t.Fatal(err)
			}
			records := []query.EventRecord{}
			if err := h.Client.StreamEvents(context.Background(), qc, func(e query.EventRecord) error {
				records = append(records, e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			assertBytesEqualOneShot(t, oneShot, records, label)
		})
	}
}

// TestPaginationSurvivesCompactAndRestart is the durability acceptance:
// a cursor minted before a full compaction pass — and before a server
// restart with commitlog replay — resumes with no duplicates and no
// losses, because it encodes a data position, not server state.
func TestPaginationSurvivesCompactAndRestart(t *testing.T) {
	h := NewDurable(t)
	from, to := h.Window()
	qc := query.Context{From: from.Unix(), To: to.Unix(), EventType: "MCE"}
	oneShot, err := h.HTTP(query.Request{Op: query.OpEvents, Context: qc})
	if err != nil {
		t.Fatal(err)
	}
	var probe []query.EventRecord
	if err := json.Unmarshal(oneShot, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe) < 50 {
		t.Fatalf("corpus too small for a multi-page run: %d events", len(probe))
	}
	pageSize := len(probe) / 10

	t.Run("across_compact", func(t *testing.T) {
		records := pageThrough(t, h, qc, pageSize, func(page int) {
			if page == 2 {
				if _, err := h.DB.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		})
		assertBytesEqualOneShot(t, oneShot, records, "compact mid-pagination")
	})

	outer := t
	t.Run("across_restart", func(t *testing.T) {
		records := []query.EventRecord{}
		cursor := ""
		for page := 0; ; page++ {
			items, next, err := h.Client.EventsPage(context.Background(), qc, pageSize, cursor)
			if err != nil {
				t.Fatalf("page %d: %v", page, err)
			}
			records = append(records, items...)
			if next == "" {
				break
			}
			cursor = next
			if page == 3 {
				// Full restart: close the store, reopen from disk (commitlog
				// replay), rebuild engines + server. The cursor string is all
				// that survives. Reopen registers its cleanups on the outer
				// test so the recovered stack outlives this subtest.
				h.Reopen(outer)
			}
		}
		assertBytesEqualOneShot(t, oneShot, records, "restart mid-pagination")
	})

	t.Run("durable_stream", func(t *testing.T) {
		records := []query.EventRecord{}
		if err := h.Client.StreamEvents(context.Background(), qc, func(e query.EventRecord) error {
			records = append(records, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		assertBytesEqualOneShot(t, oneShot, records, "durable stream")
	})
}

// TestCQLPaginationSurvivesRestart pages a SELECT across a restart.
func TestCQLPaginationSurvivesRestart(t *testing.T) {
	h := NewDurable(t)
	from, _ := h.Window()
	stmt := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE'", from.Unix()/3600)
	sess := h.Client.Session("ONE")
	full, err := sess.Execute(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) < 10 {
		t.Fatalf("partition too small: %d rows", len(full.Rows))
	}
	var keys []string
	cursor := ""
	for page := 0; ; page++ {
		rows, next, err := sess.Page(context.Background(), stmt, 4, cursor)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		for _, r := range rows {
			keys = append(keys, r.Key)
		}
		if next == "" {
			break
		}
		cursor = next
		if page == 1 {
			h.Reopen(t)
			sess = h.Client.Session("ONE")
		}
	}
	if len(keys) != len(full.Rows) {
		t.Fatalf("paged %d rows, one-shot %d", len(keys), len(full.Rows))
	}
	for i, k := range keys {
		if k != full.Rows[i].Key {
			t.Fatalf("row %d key %q, want %q", i, k, full.Rows[i].Key)
		}
	}
}

// TestWatchDeliveryLatency is the push acceptance: a watch subscriber
// receives a freshly written event without any fixed poll-interval sleep
// — the old handler re-scanned every 50ms, so delivery cost up to a full
// tick; the hub path must deliver well under that on the median.
func TestWatchDeliveryLatency(t *testing.T) {
	h := New(t)
	w, err := h.Client.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
		Since:   time.Now().Add(-time.Second),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	type arrival struct {
		rec query.EventRecord
		at  time.Time
	}
	arrivals := make(chan arrival, 16)
	go func() {
		for {
			e, ok := w.Next()
			if !ok {
				close(arrivals)
				return
			}
			arrivals <- arrival{rec: e, at: time.Now()}
		}
	}()

	loader := ingest.NewLoader(h.DB)
	const probes = 5
	var latencies []time.Duration
	for i := 0; i < probes; i++ {
		e := model.Event{
			Time: time.Now().UTC(), Type: model.GPUFail,
			Source: fmt.Sprintf("c0-0c0s0n%d", i), Count: 1,
			Raw: fmt.Sprintf("latency probe %d", i),
		}
		wrote := time.Now()
		if err := loader.LoadEvents([]model.Event{e}); err != nil {
			t.Fatal(err)
		}
		select {
		case a, ok := <-arrivals:
			if !ok {
				t.Fatalf("watch ended early: %v", w.Err())
			}
			latencies = append(latencies, a.at.Sub(wrote))
		case <-time.After(10 * time.Second):
			t.Fatalf("probe %d never delivered", i)
		}
		// Distinct seconds keep each probe's clustering key unique.
		time.Sleep(1100 * time.Millisecond)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	median := latencies[len(latencies)/2]
	t.Logf("watch delivery latencies: %v (median %v)", latencies, median)
	// The quiet-machine bound is 25ms (half the old poll tick); slow CI
	// boxes widen it via HPCLOG_TIMING_SCALE instead of flaking.
	if bound := testutil.Scaled(25 * time.Millisecond); median >= bound {
		t.Fatalf("median delivery latency %v over the %v bound — not meaningfully under the old 50ms poll tick", median, bound)
	}
}

// TestWatchUnderConcurrentWrites floods the ingest path from several
// goroutines while one subscriber watches: every event must arrive
// exactly once, including same-second writes landing out of clustering
// order (the stability-window dedup). Run under -race this also proves
// the hub's write-path fan-out is data-race free.
func TestWatchUnderConcurrentWrites(t *testing.T) {
	h := New(t)
	const writers = 4
	const perWriter = 25
	// Timestamps sit in the recent past so every write is immediately
	// inside the watch window regardless of wall-clock progress.
	base := time.Now().UTC().Add(-40 * time.Second)
	w, err := h.Client.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
		Since:   base.Add(-time.Second),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			loader := ingest.NewLoader(h.DB)
			for j := 0; j < perWriter; j++ {
				e := model.Event{
					// Same seconds across writers, distinct sources: keys land
					// out of order relative to the watcher's scan position.
					Time: base.Add(time.Duration(j) * time.Second), Type: model.GPUFail,
					Source: fmt.Sprintf("c%d-0c0s%dn%d", wr, wr%8, j%4), Count: 1,
					Raw: fmt.Sprintf("w%d-%d", wr, j),
				}
				if err := loader.LoadEvents([]model.Event{e}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wr)
	}

	want := writers * perWriter
	seen := make(map[string]int)
	deadline := time.After(20 * time.Second)
	got := 0
	done := make(chan struct{})
	recs := make(chan query.EventRecord, want)
	go func() {
		defer close(done)
		for {
			e, ok := w.Next()
			if !ok {
				return
			}
			recs <- e
		}
	}()
collect:
	for got < want {
		select {
		case e := <-recs:
			seen[e.Raw]++
			got++
		case <-deadline:
			break collect
		}
	}
	wg.Wait()
	if got != want {
		t.Fatalf("delivered %d/%d events", got, want)
	}
	for raw, n := range seen {
		if n != 1 {
			t.Fatalf("event %q delivered %d times", raw, n)
		}
	}
}

// TestWatchHubChurn stresses the hub's subscribe/unsubscribe path: a
// stable subscriber plus a churning population joining and leaving while
// four writers ingest concurrently. The stable subscriber must still see
// every event exactly once (churn must not corrupt fan-out), each
// churning subscription must itself never see a duplicate, and closing
// the server afterwards must release every hub goroutine (no leak).
// Under -race this is the hub's concurrency proof.
func TestWatchHubChurn(t *testing.T) {
	h := New(t)
	const (
		writers   = 4
		perWriter = 25
		churners  = 6
	)
	base := time.Now().UTC().Add(-40 * time.Second)
	since := base.Add(-time.Second)

	stable, err := h.Client.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
		Since: since, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stable.Close()
	stableRecs := make(chan query.EventRecord, writers*perWriter)
	go func() {
		defer close(stableRecs)
		for {
			e, ok := stable.Next()
			if !ok {
				return
			}
			stableRecs <- e
		}
	}()

	goroutinesBefore := runtime.NumGoroutine()

	// Churners: open a subscription, read briefly, close, rejoin — for as
	// long as the writers run. Every subscription is checked for
	// duplicate delivery within its own lifetime.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	var churnJoins atomic.Int64
	for c := 0; c < churners; c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			for {
				select {
				case <-stopChurn:
					return
				default:
				}
				w, err := h.Client.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
					Since: since, Timeout: 5 * time.Second,
				})
				if err != nil {
					t.Errorf("churner %d: %v", c, err)
					return
				}
				churnJoins.Add(1)
				seen := map[string]bool{}
				readUntil := time.After(20 * time.Millisecond)
			read:
				for {
					next := make(chan query.EventRecord, 1)
					go func() {
						if e, ok := w.Next(); ok {
							next <- e
						}
						close(next)
					}()
					select {
					case e, ok := <-next:
						if !ok {
							break read
						}
						if seen[e.Raw] {
							t.Errorf("churner %d saw %q twice in one subscription", c, e.Raw)
						}
						seen[e.Raw] = true
					case <-readUntil:
						break read
					}
				}
				w.Close()
			}
		}(c)
	}

	var writeWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		writeWG.Add(1)
		go func(wr int) {
			defer writeWG.Done()
			loader := ingest.NewLoader(h.DB)
			for j := 0; j < perWriter; j++ {
				e := model.Event{
					Time: base.Add(time.Duration(j) * time.Second), Type: model.GPUFail,
					Source: fmt.Sprintf("c%d-0c0s%dn%d", wr, wr%8, j%4), Count: 1,
					Raw: fmt.Sprintf("churn-w%d-%d", wr, j),
				}
				if err := loader.LoadEvents([]model.Event{e}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wr)
	}
	writeWG.Wait()

	// The stable subscriber collects everything exactly once.
	want := writers * perWriter
	seen := map[string]int{}
	deadline := time.After(20 * time.Second)
	for len(seen) < want {
		select {
		case e, ok := <-stableRecs:
			if !ok {
				t.Fatalf("stable watch ended early after %d/%d: %v", len(seen), want, stable.Err())
			}
			seen[e.Raw]++
			if seen[e.Raw] > 1 {
				t.Fatalf("stable subscriber saw %q %d times", e.Raw, seen[e.Raw])
			}
		case <-deadline:
			t.Fatalf("stable subscriber got %d/%d events", len(seen), want)
		}
	}

	// Let churners keep cycling against the fully written corpus so each
	// one demonstrably joins and leaves more than once.
	for churnJoins.Load() < int64(2*churners) {
		select {
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("churners stuck at %d joins", churnJoins.Load())
		}
	}
	close(stopChurn)
	churnWG.Wait()
	t.Logf("churn: %d subscriptions joined and left during %d writes", churnJoins.Load(), want)

	// Shut the server down and prove the hub releases its goroutines:
	// parked subscriber handlers, notify fan-out, and our readers must all
	// exit. Allow scheduler time and a small slack for runtime internals.
	h.Srv.Close()
	h.TS.Close()
	leakDeadline := time.Now().Add(testutil.Scaled(5 * time.Second))
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after Close: %d before churn, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerCloseDrainsWatchers: Close wakes parked subscribers so
// graceful shutdown does not hang on long-lived watch streams.
func TestServerCloseDrainsWatchers(t *testing.T) {
	h := New(t)
	w, err := h.Client.Watch(context.Background(), "GPU_FAIL", client.WatchOptions{
		Since:   time.Now().Add(-time.Second),
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ended := make(chan error, 1)
	go func() {
		for {
			if _, ok := w.Next(); !ok {
				ended <- w.Err()
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the subscriber park
	start := time.Now()
	h.Srv.Close()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatalf("watch ended with error: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("drain took %v", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the watch subscriber")
	}
}
