package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// A component's events are a source read of event_by_time: the hour's
// type partitions, pruned by their blocks' source group lists and Bloom
// filters, selected in the block decoder. The tests here hold that read
// to the long way round, and to what the per-component table it replaces
// answered: its rows, their order and their page cursors.

// sourceOracle answers an events request with a source the long way:
// every event_by_time partition of each hour of the window read whole
// through Get, the source's rows kept and ordered by (time, type), each
// the record the model decodes; and, per row, the cursor a page ending on
// it carries — the per-component table's key, time:type.
func sourceOracle(t *testing.T, db *store.DB, qc query.Context) (recs []query.EventRecord, cursors []string) {
	t.Helper()
	types := model.EventTypes
	if qc.EventType != "" {
		types = []model.EventType{model.EventType(qc.EventType)}
	}
	var events []model.Event
	for _, hour := range model.HoursIn(time.Unix(qc.From, 0), time.Unix(qc.To, 0)) {
		for _, typ := range types {
			pkey := model.EventByTimeKey(hour, typ)
			rows, err := db.Get(model.TableEventByTime, pkey, store.Range{}, store.One)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.ColID(model.ColSourceID) != qc.Source {
					continue
				}
				e, err := model.EventFromTimeRow(pkey, r)
				if err != nil {
					t.Fatal(err)
				}
				if ts := e.Time.Unix(); ts >= qc.From && ts < qc.To {
					events = append(events, e)
				}
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].Time.Equal(events[j].Time) {
			return events[i].Time.Before(events[j].Time)
		}
		return events[i].Type < events[j].Type
	})
	recs = []query.EventRecord{}
	for _, e := range events {
		ts := e.Time.Unix()
		recs = append(recs, query.EventRecord{Time: ts, Type: string(e.Type), Source: e.Source, Count: e.Count, Raw: e.Raw, Attrs: e.Attrs})
		cursors = append(cursors, api.Cursor{Op: "events", Hour: ts / 3600, Key: store.EncodeTS(ts) + ":" + string(e.Type)}.Encode())
	}
	return recs, cursors
}

// checkSourceRead answers qc one-shot, streamed and in pages of pageSize
// (0: no pages) and holds every delivery to the oracle: the same bytes,
// and every full page ending in the cursor of its last row.
func checkSourceRead(t *testing.T, h *Harness, qc query.Context, pageSize int) int {
	t.Helper()
	want, cursors := sourceOracle(t, h.DB, qc)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("%s/%s [%d, %d)", qc.Source, qc.EventType, qc.From, qc.To)
	oneShot, err := h.HTTP(query.Request{Op: query.OpEvents, Context: qc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oneShot, wantJSON) {
		t.Fatalf("%s: one-shot\n%.400s\nGet-then-filter\n%.400s", label, oneShot, wantJSON)
	}
	var streamed []query.EventRecord
	if err := h.Client.StreamEvents(context.Background(), qc, func(e query.EventRecord) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if streamed == nil {
		streamed = []query.EventRecord{}
	}
	sameJSON(t, label+" streamed", wantJSON, streamed)
	if pageSize == 0 {
		return len(want)
	}
	var paged []query.EventRecord
	cursor := ""
	for page := 0; ; page++ {
		items, next, err := h.Client.EventsPage(context.Background(), qc, pageSize, cursor)
		if err != nil {
			t.Fatalf("%s page %d: %v", label, page, err)
		}
		paged = append(paged, items...)
		switch {
		case len(items) == pageSize && next != cursors[len(paged)-1]:
			t.Fatalf("%s page %d ends in cursor %q, want %q", label, page, next, cursors[len(paged)-1])
		case len(items) < pageSize && next != "":
			t.Fatalf("%s page %d of %d rows carries cursor %q", label, page, len(items), next)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if paged == nil {
		paged = []query.EventRecord{}
	}
	sameJSON(t, label+" paged", wantJSON, paged)
	return len(want)
}

// probeSources writes, into the first hour's KERNEL_PANIC partition, 320
// events of 320 sources but one, probe-target, which has every 50th: more
// sources than a section dictionary holds, so that most of the blocks
// they fill have no group list and only zone maps and Bloom filters
// prune them.
func probeSources(t *testing.T, h *Harness) {
	t.Helper()
	from, _ := h.Window()
	var rows []store.Row
	for i := 0; i < 320; i++ {
		src := fmt.Sprintf("probe-%03d", i)
		if i%50 == 7 {
			src = "probe-target"
		}
		rows = append(rows, model.EventToTimeRow(model.Event{Time: from.Add(time.Duration(100+i) * time.Second), Type: model.KernelPanic,
			Source: src, Count: 1 + i%3, Raw: "kernel panic on " + src, Attrs: map[string]string{"cpu": fmt.Sprint(i % 16)}}))
	}
	if err := h.DB.PutBatch(model.TableEventByTime, model.EventByTimeKey(model.HourOf(from), model.KernelPanic), rows, store.All); err != nil {
		t.Fatal(err)
	}
}

// cqlExec runs a statement over the wire at ALL.
func cqlExec(t *testing.T, h *Harness, stmt string) (*cql.Result, error) {
	t.Helper()
	return h.Client.Session("ALL").Execute(context.Background(), stmt)
}

// TestSourceReadMatchesGetThenFilter is the differential test of the
// source read on the resident, durable and tiered stacks: busy, rare,
// absent and probe sources, with and without a type, over the window and
// a window that cuts blocks at both ends, one-shot, streamed and paged —
// every page's cursor checked byte for byte. On the disk stacks the probe
// rows are flushed, into blocks without group lists that the Bloom
// filters prune, and rows written after the flush into hours already on
// disk — a new event of a busy source, and a newer version of one event
// naming another source — are read through the merge of a memtable over
// a segment, where the newer version wins.
func TestSourceReadMatchesGetThenFilter(t *testing.T) {
	for name, h := range batchStacks(t) {
		t.Run(name, func(t *testing.T) {
			from, to := h.Window()
			probeSources(t, h)
			if name != "memory" {
				if err := h.DB.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			moved := h.Corpus.Events[len(h.Corpus.Events)/2]
			inserts := []string{
				fmt.Sprintf("INSERT INTO event_by_time (partition, key, source, amount, raw) VALUES ('%s', '%019d:c2-0c0s0n1', 'c2-0c0s0n1', '3', 'written after the flush')",
					model.EventByTimeKey(model.HourOf(from)+1, model.MCE), from.Unix()+3600+1234),
				fmt.Sprintf("INSERT INTO event_by_time (partition, key, source, amount) VALUES ('%s', '%019d:%s', 'probe-moved', '1')",
					model.EventByTimeKey(moved.Hour(), moved.Type), moved.Time.Unix(), moved.Source),
			}
			for _, stmt := range inserts {
				if _, err := cqlExec(t, h, stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}

			counts := map[string]int{}
			for _, e := range h.Corpus.Events {
				counts[e.Source]++
			}
			busy, rare := "", ""
			for src, n := range counts {
				if busy == "" || n > counts[busy] || n == counts[busy] && src < busy {
					busy = src
				}
				if rare == "" || n < counts[rare] || n == counts[rare] && src < rare {
					rare = src
				}
			}
			sources := []string{busy, rare, "c2-0c0s0n1", moved.Source, "probe-target", "probe-150", "probe-moved", "nowhere-at-all"}
			windows := [][2]int64{{from.Unix(), to.Unix()}, {from.Unix() + 1000, to.Unix() - 1700}}
			read := map[string]int{}
			for _, src := range sources {
				for _, typ := range []string{"", "MCE", "KERNEL_PANIC", "LUSTRE"} {
					for w, win := range windows {
						pageSize := 0
						if w == 0 {
							pageSize = 9
						}
						read[src] += checkSourceRead(t, h, query.Context{Source: src, EventType: typ, From: win[0], To: win[1]}, pageSize)
					}
				}
			}
			for _, src := range []string{busy, rare, "c2-0c0s0n1", "probe-target", "probe-150", "probe-moved"} {
				if read[src] == 0 {
					t.Errorf("no rows of %s were read: the comparison is vacuous", src)
				}
			}
			if read["nowhere-at-all"] != 0 {
				t.Errorf("%d rows of a source no event names", read["nowhere-at-all"])
			}
			if name == "memory" {
				return
			}
			// The probe partition's blocks are mostly skipped before they
			// are read; some have no group list, so Bloom filters did it.
			// As a pruner alone the Match only skips blocks: every row of
			// the blocks it keeps comes back.
			probe := store.NewMatch(model.ColSource, "probe-150")
			probeRead := func(sel *store.Match) (rows int, stats *store.PruneStats) {
				stats = &store.PruneStats{}
				it, err := h.DB.PartitionBatches(context.Background(), model.TableEventByTime,
					model.EventByTimeKey(model.HourOf(from), model.KernelPanic), store.Range{}, store.One, nil, sel, probe, stats)
				if err != nil {
					t.Fatal(err)
				}
				for b, ok := it.Next(); ok; b, ok = it.Next() {
					rows += b.Len()
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				return rows, stats
			}
			if rows, stats := probeRead(probe); rows != 1 || stats.BlocksPruned.Load() < 4 {
				t.Fatalf("probe-150: %d rows, %d blocks read, %d pruned", rows, stats.BlocksRead.Load(), stats.BlocksPruned.Load())
			}
			if rows, stats := probeRead(nil); rows <= 1 || stats.BlocksPruned.Load() < 4 {
				t.Fatalf("probe-150 as a pruner alone: %d rows, %d blocks read, %d pruned", rows, stats.BlocksRead.Load(), stats.BlocksPruned.Load())
			}
			if st := h.DB.StorageStats(); st.MergedScans == 0 {
				t.Fatal("no scan went through the merge of a memtable and a segment")
			}
		})
	}
}

// TestInsertSeenBySourceRead: an event written through CQL into
// event_by_time is an event of its source — one-shot, streamed and paged.
// With a second, per-component copy of every event, which only the bulk
// load wrote, a source read never saw it.
func TestInsertSeenBySourceRead(t *testing.T) {
	h := New(t)
	from, to := h.Window()
	const src = "c2-0c0s0n1"
	ts := from.Unix() + 2*3600 + 17
	if _, err := cqlExec(t, h, fmt.Sprintf("INSERT INTO event_by_time (partition, key, source, amount, raw) VALUES ('%s', '%019d:%s', '%s', '2', 'inserted through CQL')",
		model.EventByTimeKey(ts/3600, model.MCE), ts, src, src)); err != nil {
		t.Fatal(err)
	}
	qc := query.Context{Source: src, From: from.Unix(), To: to.Unix()}
	seen := func(label string, recs []query.EventRecord) {
		t.Helper()
		for _, e := range recs {
			if e.Raw == "inserted through CQL" {
				if e.Time != ts || e.Type != "MCE" || e.Source != src || e.Count != 2 {
					t.Fatalf("%s: the inserted event reads %+v", label, e)
				}
				return
			}
		}
		t.Fatalf("%s: the inserted event is missing from %d events of %s", label, len(recs), src)
	}
	oneShot, err := h.Client.Events(context.Background(), qc)
	if err != nil {
		t.Fatal(err)
	}
	seen("one-shot", oneShot)
	var streamed []query.EventRecord
	if err := h.Client.StreamEvents(context.Background(), qc, func(e query.EventRecord) error {
		streamed = append(streamed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seen("streamed", streamed)
	seen("paged", pageThrough(t, h, qc, 5, nil))
}

// TestOldStoreSourceRead: a store written when every event had a second,
// per-component copy keeps those event_by_location partitions, and reads
// none of them. Its component's events are the source read's, byte for
// byte the pinned answer, and CQL refuses the old table — a read, a write
// and a schema probe alike — rather than serve its stale rows.
func TestOldStoreSourceRead(t *testing.T) {
	root := t.TempDir()
	untar(t, filepath.Join("testdata", "v8store.tar.gz"), root)
	h := attach(t, store.Config{
		Nodes: 2, RF: 1, VNodes: 32,
		FlushThreshold:  512,
		CompactInterval: -1,
		Dir:             filepath.Join(root, "store"),
		Tier:            objstore.Config{Backend: "fs", Dir: filepath.Join(root, "objects"), CacheBytes: 1 << 20},
	})
	pkeys, err := h.DB.PartitionKeys(context.Background(), model.TableEventByLoc)
	if err != nil || len(pkeys) == 0 {
		t.Fatalf("the fixture's event_by_location partitions: %d, %v", len(pkeys), err)
	}
	for _, c := range Cases(h) {
		if c.Name == "events_by_source" {
			pinAnswer(t, c.Name, h.Run(t, c))
		}
	}
	from, _ := h.Window()
	for _, stmt := range []string{
		fmt.Sprintf("SELECT * FROM event_by_location WHERE partition = '%s'", pkeys[0]),
		fmt.Sprintf("EXPLAIN SELECT source FROM Event_By_Location WHERE partition = '%s'", pkeys[0]),
		fmt.Sprintf("INSERT INTO event_by_location (partition, key, type, amount) VALUES ('%d:c2-0c0s0n1', '%019d:MCE', 'MCE', '1')", from.Unix()/3600, from.Unix()),
		"DESCRIBE TABLE event_by_location",
	} {
		_, err := cqlExec(t, h, stmt)
		var apiErr *api.Error
		if err == nil || !strings.Contains(err.Error(), cql.ErrRetiredTable.Error()) || !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
			t.Fatalf("%s: %v, want a bad request refusing the retired table", stmt, err)
		}
	}
	if res, err := cqlExec(t, h, "DESCRIBE TABLES"); err != nil || !slices.Contains(res.Tables, model.TableEventByLoc) {
		t.Fatalf("DESCRIBE TABLES of the old store: %v, %v; want the old table's name listed", res, err)
	}
	after, err := h.DB.PartitionKeys(context.Background(), model.TableEventByLoc)
	if err != nil || len(after) != len(pkeys) {
		t.Fatalf("the refused statements changed the old partitions: %d, then %d (%v)", len(pkeys), len(after), err)
	}
}
