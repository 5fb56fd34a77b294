package enginetest

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/server"
	"hpclog/internal/store"
)

// newTinyRingServer stands up an empty stack whose watch hub has a
// deliberately tiny tail ring, so concurrent write bursts overflow it
// and force the scan fallback — the path this test must prove correct.
func newTinyRingServer(t *testing.T, ring int) (*store.DB, *client.Client) {
	t.Helper()
	db, err := store.OpenDurable(store.Config{Nodes: 4, RF: 2, VNodes: 16, FlushThreshold: 1 << 14, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest.Bootstrap(db, 4); err != nil {
		t.Fatal(err)
	}
	comp := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	eng := query.NewWithOptions(db, comp, query.Options{CacheSize: -1})
	srv := server.NewWithConfig(eng, db, comp, server.Config{WatchTailRing: ring})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
		db.Close()
	})
	return db, client.New(ts.URL)
}

// TestWatchHubShardedExactlyOnce is the sharded hub's correctness
// gauntlet: three event types, four concurrent writers per type, a
// long-lived subscriber per type plus churning short-lived ones, and a
// tail ring small enough (8 slots vs 4-writer bursts) that subscribers
// routinely lag past it. Every long-lived subscriber must receive
// exactly its own type's events — each exactly once, none from other
// types — across ring hits and overflow scans alike, every churning
// subscription must be dup-free within its lifetime, and the server's
// tail-miss counter must prove the fallback actually fired. Run under
// -race this also covers the digest fan-out end to end.
func TestWatchHubShardedExactlyOnce(t *testing.T) {
	db, cli := newTinyRingServer(t, 8)
	types := []model.EventType{model.GPUFail, model.MCE, model.Lustre}
	const (
		writers   = 4
		perWriter = 25
		churners  = 2 // per type
	)
	base := time.Now().UTC().Add(-40 * time.Second)
	since := base.Add(-time.Second)
	want := writers * perWriter

	// Long-lived subscriber per type.
	type stream struct {
		typ  model.EventType
		recs chan query.EventRecord
	}
	streams := make([]*stream, len(types))
	for i, typ := range types {
		w, err := cli.Watch(context.Background(), string(typ), client.WatchOptions{
			Since: since, Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		st := &stream{typ: typ, recs: make(chan query.EventRecord, want*2)}
		streams[i] = st
		go func() {
			defer close(st.recs)
			for {
				e, ok := w.Next()
				if !ok {
					return
				}
				st.recs <- e
			}
		}()
	}

	// Churners join, read briefly, and leave throughout the write storm;
	// each subscription's lifetime must be dup-free and type-pure.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	var churnJoins atomic.Int64
	for c := 0; c < churners*len(types); c++ {
		churnWG.Add(1)
		go func(c int) {
			defer churnWG.Done()
			typ := types[c%len(types)]
			for {
				select {
				case <-stopChurn:
					return
				default:
				}
				w, err := cli.Watch(context.Background(), string(typ), client.WatchOptions{
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
						if e.Type != string(typ) {
							t.Errorf("churner %d on %s received type %s", c, typ, e.Type)
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

	// The write storm: 4 writers per type, same seconds across writers so
	// keys land out of clustering order relative to every scan position.
	// Each writer front-loads half its events as ONE multi-row batch —
	// LoadEvents coalesces same-partition rows into a single PutBatch, so
	// the digest appends 12 rows to an 8-slot ring in one shot and every
	// parked subscriber of the type is deterministically lagged past the
	// ring — then trickles the rest as single-row digests the ring can
	// serve.
	var wg sync.WaitGroup
	for _, typ := range types {
		for wr := 0; wr < writers; wr++ {
			wg.Add(1)
			go func(typ model.EventType, wr int) {
				defer wg.Done()
				loader := ingest.NewLoader(db)
				mk := func(j int) model.Event {
					return model.Event{
						Time: base.Add(time.Duration(j) * time.Second), Type: typ,
						Source: fmt.Sprintf("c%d-0c0s%dn%d", wr, wr%8, j%4), Count: 1,
						Raw: fmt.Sprintf("%s-w%d-%d", typ, wr, j),
					}
				}
				burst := make([]model.Event, 0, perWriter/2)
				for j := 0; j < perWriter/2; j++ {
					burst = append(burst, mk(j))
				}
				if err := loader.LoadEvents(burst); err != nil {
					t.Error(err)
					return
				}
				for j := perWriter / 2; j < perWriter; j++ {
					if err := loader.LoadEvents([]model.Event{mk(j)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(typ, wr)
		}
	}
	wg.Wait()

	// Drain each long-lived stream to its full complement.
	for _, st := range streams {
		seen := make(map[string]int, want)
		deadline := time.After(20 * time.Second)
		for len(seen) < want {
			select {
			case e, ok := <-st.recs:
				if !ok {
					t.Fatalf("%s stream ended early", st.typ)
				}
				if e.Type != string(st.typ) {
					t.Fatalf("%s subscriber received type %s event %q — shard isolation broken", st.typ, e.Type, e.Raw)
				}
				seen[e.Raw]++
			case <-deadline:
				t.Fatalf("%s stream delivered %d/%d distinct events", st.typ, len(seen), want)
			}
		}
		for raw, n := range seen {
			if n != 1 {
				t.Fatalf("%s event %q delivered %d times", st.typ, raw, n)
			}
		}
	}
	close(stopChurn)
	churnWG.Wait()
	if churnJoins.Load() == 0 {
		t.Fatal("no churn subscription ever joined")
	}

	// The 8-slot ring cannot hold 4-writer bursts: the scan fallback must
	// have fired, and the ring must still have served some wakes.
	st, err := cli.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.HTTP.WatchTailMisses == 0 {
		t.Fatal("tail ring never overflowed — the fallback path went untested (grow the storm or shrink the ring)")
	}
	t.Logf("hub: %d wakeups (%d coalesced), tail %d hit / %d miss, shards %v",
		st.HTTP.WatchWakeups, st.HTTP.WatchCoalesced, st.HTTP.WatchTailHits, st.HTTP.WatchTailMisses, st.HTTP.WatchShards)
}
