package server

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// testDigest builds the write digest one acked event produces, the same
// shape store.DB.notifyWrite publishes.
func testDigest(typ model.EventType, ts int64, src string) *store.WriteDigest {
	e := model.Event{
		Time: time.Unix(ts, 0).UTC(), Type: typ,
		Source: src, Count: 1, Raw: "hub " + src,
	}
	return &store.WriteDigest{
		Table: model.TableEventByTime,
		PKey:  model.EventByTimeKey(ts/3600, typ),
		Rows:  []store.Row{model.EventToTimeRow(e)},
	}
}

// records reads a collect result as the records its lines encode.
func records(c *chunk, err error) ([]query.EventRecord, error) {
	if err != nil {
		return nil, err
	}
	defer c.release()
	out := make([]query.EventRecord, c.rows())
	for i := range out {
		if err := json.Unmarshal(c.row(i), &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// waitWake asserts the subscriber's latch fires within the deadline.
func waitWake(t *testing.T, sub *subscriber) {
	t.Helper()
	select {
	case <-sub.ch:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woken")
	}
}

// TestHubShardIsolation: a write digest wakes only subscribers of its
// event type, and the woken subscriber drains the event from the tail
// ring (no scan, so a nil DB suffices).
func TestHubShardIsolation(t *testing.T) {
	h := newHub(16)
	defer h.close()
	subA := h.subscribe(model.GPUFail)
	subB := h.subscribe(model.MCE)
	defer h.unsubscribe(subA)
	defer h.unsubscribe(subB)

	now := time.Now()
	h.notify(testDigest(model.GPUFail, now.Unix(), "c0-0c0s0n1"))
	waitWake(t, subA)

	tail := newEventTail(model.GPUFail, now.Add(-time.Minute).Unix())
	out, err := records(h.collect(subA, tail, nil, now, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Source != "c0-0c0s0n1" {
		t.Fatalf("collect = %+v, want the one GPU_FAIL event", out)
	}
	if hits := h.tailHits.Load(); hits != 1 {
		t.Fatalf("tailHits = %d, want 1 (delta served from the ring)", hits)
	}
	if misses := h.tailMisses.Load(); misses != 0 {
		t.Fatalf("tailMisses = %d, want 0", misses)
	}
	select {
	case <-subB.ch:
		t.Fatal("type-B subscriber woken by a type-A write")
	case <-time.After(50 * time.Millisecond):
	}
	counts := h.shardCounts()
	if counts["GPU_FAIL"] != 1 || counts["MCE"] != 1 {
		t.Fatalf("shardCounts = %v", counts)
	}
}

// TestHubWakeupAccounting: wakeups counts successful latch sends only.
// A subscriber that never drains its latch is woken exactly once no
// matter how many digests arrive behind it (the pre-fix hub added
// len(subs) on every notify).
func TestHubWakeupAccounting(t *testing.T) {
	h := newHub(64)
	defer h.close()
	sub := h.subscribe(model.GPUFail)
	defer h.unsubscribe(sub)

	ts := time.Now().Unix()
	h.notify(testDigest(model.GPUFail, ts, "n0"))
	deadline := time.Now().Add(5 * time.Second)
	for h.wakeups.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first wakeup never counted")
		}
		time.Sleep(time.Millisecond)
	}
	// The latch is full and never drained: further digests must not add
	// wakeups, however many dispatch passes run.
	for i := 0; i < 16; i++ {
		h.notify(testDigest(model.GPUFail, ts, fmt.Sprintf("n%d", i+1)))
	}
	time.Sleep(50 * time.Millisecond)
	if got := h.wakeups.Load(); got != 1 {
		t.Fatalf("wakeups = %d after 17 digests against a full latch, want 1", got)
	}
	if h.delivered.Load() != 0 {
		t.Fatal("delivered moved without any collect")
	}
}

// TestHubRingOverflowFallsBackToScan: a subscriber lagging past the tail
// ring must recover every event through the scan fallback, exactly once,
// and the miss counter must prove the fallback fired.
func TestHubRingOverflowFallsBackToScan(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 2, RF: 2, VNodes: 8, FlushThreshold: 1024})
	if err := ingest.Bootstrap(db, 2); err != nil {
		t.Fatal(err)
	}
	h := newHub(4) // tiny ring so a 12-event burst overflows
	defer h.close()
	cancel := db.RegisterWriteNotify(h.notify)
	defer cancel()

	sub := h.subscribe(model.GPUFail)
	defer h.unsubscribe(sub)
	base := time.Now().UTC().Add(-40 * time.Second)
	tail := newEventTail(model.GPUFail, base.Add(-time.Second).Unix())

	loader := ingest.NewLoader(db)
	write := func(i int) model.Event {
		return model.Event{
			Time: base.Add(time.Duration(i) * time.Second), Type: model.GPUFail,
			Source: fmt.Sprintf("c0-0c0s0n%d", i%4), Count: 1,
			Raw: fmt.Sprintf("ov-%d", i),
		}
	}
	// Initial catch-up scan (forced, so not a tail miss).
	if err := loader.LoadEvents([]model.Event{write(0)}); err != nil {
		t.Fatal(err)
	}
	out, err := records(h.collect(sub, tail, db, time.Now(), true))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range out {
		seen[r.Raw]++
	}
	if h.tailMisses.Load() != 0 {
		t.Fatalf("initial forced scan counted as a miss (misses=%d)", h.tailMisses.Load())
	}

	// 12 more writes against a 4-slot ring while the subscriber sleeps:
	// lagged past the ring, the next collect must scan.
	for i := 1; i <= 12; i++ {
		if err := loader.LoadEvents([]model.Event{write(i)}); err != nil {
			t.Fatal(err)
		}
	}
	out, err = records(h.collect(sub, tail, db, time.Now(), false))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		seen[r.Raw]++
	}
	if h.tailMisses.Load() == 0 {
		t.Fatal("overflowed collect did not count a tail miss")
	}
	for i := 0; i <= 12; i++ {
		raw := fmt.Sprintf("ov-%d", i)
		if seen[raw] != 1 {
			t.Fatalf("event %q delivered %d times across the overflow fallback", raw, seen[raw])
		}
	}

	// Caught up again: the next burst fits the ring and is served from it.
	hitsBefore := h.tailHits.Load()
	for i := 13; i < 16; i++ {
		if err := loader.LoadEvents([]model.Event{write(i)}); err != nil {
			t.Fatal(err)
		}
	}
	out, err = records(h.collect(sub, tail, db, time.Now(), false))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("post-recovery collect = %d events, want 3", len(out))
	}
	if h.tailHits.Load() != hitsBefore+1 {
		t.Fatal("post-recovery collect not served from the ring")
	}
}

// TestHubCoalescedWakeups: appends landing while a dispatch is already
// pending are counted as coalesced. The hub is closed first so the
// dispatcher cannot clear the dirty bit between appends, making the
// count deterministic.
func TestHubCoalescedWakeups(t *testing.T) {
	h := newHub(16)
	sub := h.subscribe(model.GPUFail)
	h.close() // dispatcher exits; dirty stays set after the first append
	ts := time.Now().Unix()
	h.notify(testDigest(model.GPUFail, ts, "a"))
	h.notify(testDigest(model.GPUFail, ts, "b"))
	h.notify(testDigest(model.GPUFail, ts, "c"))
	if got := h.coalesced.Load(); got != 2 {
		t.Fatalf("coalesced = %d, want 2 of 3 back-to-back digests", got)
	}
	h.unsubscribe(sub)
}

// TestHubFreesShards: a shard lives as long as its subscribers. Short
// watches on 200 distinct types — type= is whatever a client sends —
// leave no shard, ring or dispatcher goroutine behind.
func TestHubFreesShards(t *testing.T) {
	h := newHub(defaultTailRing)
	defer h.close()
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		sub := h.subscribe(model.EventType(fmt.Sprintf("NO_SUCH_TYPE_%d", i)))
		h.unsubscribe(sub)
	}
	h.mu.RLock()
	shards := len(h.shards)
	h.mu.RUnlock()
	if shards != 0 {
		t.Fatalf("%d shards left after every watch ended, want 0", shards)
	}
	// The dispatchers exit on their own goroutines; wait for the last.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every watch ended, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkHubNotify measures the write path's cost of publishing one
// single-row digest into a shard with N parked subscribers. The cost
// must be O(rows), not O(subscribers): the dispatcher owns fan-out.
func BenchmarkHubNotify(b *testing.B) {
	for _, n := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("subs%d", n), func(b *testing.B) {
			h := newHub(4096)
			defer h.close()
			for i := 0; i < n; i++ {
				h.subscribe(model.GPUFail)
			}
			d := testDigest(model.GPUFail, time.Now().Unix(), "c0-0c0s0n0")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.notify(d)
			}
		})
	}
}
