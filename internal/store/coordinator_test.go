package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpclog/internal/store/persist"
	"hpclog/internal/testutil"
)

var errFakeRemote = errors.New("fake remote: injected failure")

// fakeRemote is an in-memory Remote whose Apply can be made to block or
// fail: the stand-in for a member hosted by another process.
type fakeRemote struct {
	mu      sync.Mutex
	parts   map[string][]Row // "table/pkey" -> rows sorted by key
	fail    bool             // Apply returns errFakeRemote
	block   chan struct{}    // non-nil: Apply waits to receive from it
	applied chan struct{}    // one send per successful Apply; buffered past any test's count
	// scanFailAfter > 0 makes a Scan of more rows than that break off
	// after them with errFakeRemote.
	scanFailAfter int
	pulled        atomic.Int64     // rows its scans have handed out
	onApply       func(rows []Row) // when set, sees each Apply's rows first
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{parts: make(map[string][]Row), applied: make(chan struct{}, 16)}
}

func (f *fakeRemote) setFail(fail bool) {
	f.mu.Lock()
	f.fail = fail
	f.mu.Unlock()
}

func (f *fakeRemote) Apply(_ context.Context, table, pkey string, rows []Row) error {
	if f.block != nil {
		<-f.block
	}
	if f.onApply != nil {
		f.onApply(rows)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errFakeRemote
	}
	f.parts[table+"/"+pkey] = persist.MergeRuns(f.parts[table+"/"+pkey], rows)
	f.applied <- struct{}{}
	return nil
}

func (f *fakeRemote) Scan(_ context.Context, table, pkey string, rg Range) (RowIter, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := slices.Clone(sliceRange(f.parts[table+"/"+pkey], rg))
	if k := f.scanFailAfter; k > 0 && k < len(rows) {
		return brokenIter{&sliceIter{rows[:k], &f.pulled}}, nil
	}
	return &sliceIter{rows, &f.pulled}, nil
}

// sliceIter streams a sorted run of rows, as a remote's scan does,
// counting the rows it hands out.
type sliceIter struct {
	rows   []Row
	pulled *atomic.Int64
}

func (s *sliceIter) Next() (Row, bool) {
	if len(s.rows) == 0 {
		return Row{}, false
	}
	r := s.rows[0]
	s.rows = s.rows[1:]
	s.pulled.Add(1)
	return r, true
}

func (s *sliceIter) Err() error   { return nil }
func (s *sliceIter) Close() error { return nil }

// brokenIter is a stream that broke off: its rows end early and Err
// reports why.
type brokenIter struct{ RowIter }

func (brokenIter) Err() error { return errFakeRemote }

func (f *fakeRemote) KeyBounds(_ context.Context, table, pkey string) (string, string, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := f.parts[table+"/"+pkey]
	if len(rows) == 0 {
		return "", "", false, nil
	}
	return rows[0].Key, rows[len(rows)-1].Key, true, nil
}

func (f *fakeRemote) PartitionKeys(_ context.Context, table string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var keys []string
	for k := range f.parts {
		if pkey, ok := strings.CutPrefix(k, table+"/"); ok {
			keys = append(keys, pkey)
		}
	}
	slices.Sort(keys)
	return keys, nil
}

// mixedRing opens an RF=3 ring of member a hosted in process and members
// b and c behind fake Remotes, all up.
func mixedRing(t *testing.T) (db *DB, b, c *fakeRemote) {
	t.Helper()
	db = openTest(t, Config{Members: []string{"a", "b", "c"}, LocalMembers: []string{"a"}, RF: 3, VNodes: 8})
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	b, c = newFakeRemote(), newFakeRemote()
	for id, r := range map[string]*fakeRemote{"b": b, "c": c} {
		if err := db.AttachRemote(id, r); err != nil {
			t.Fatal(err)
		}
		db.Ring().SetUp(id, true)
	}
	return db, b, c
}

// readReplica collects one replica's unpruned rows of a partition within
// rg, as a reconciling read streams them: a local scan is opened owned, a
// merge's and a remote's batches own their cells.
func readReplica(ctx context.Context, r replica, tableName, pkey string, rg Range) ([]Row, error) {
	bi, err := r.batches(ctx, tableName, pkey, rg, true)
	if err != nil {
		return nil, err
	}
	return drain(bi)
}

// rowCount counts one replica's rows of partition pkey: a local node, or a
// fake remote behind the wire adapter.
func rowCount(t *testing.T, r replica, pkey string) int {
	t.Helper()
	rows, err := readReplica(context.Background(), r, "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	return len(rows)
}

// TestCoordinatorQuorumAcksWhileRemoteBlocks: a QUORUM write returns on
// the in-process replica plus one remote while the other remote is still
// blocked, and the straggler lands afterwards without a hint.
func TestCoordinatorQuorumAcksWhileRemoteBlocks(t *testing.T) {
	db, b, c := mixedRing(t)
	c.block = make(chan struct{})
	defer close(c.block)

	done := make(chan error, 1)
	go func() { done <- db.Put("events", "p", eventRow(1, "d", "MCE", "L"), Quorum) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(testutil.Scaled(10 * time.Second)):
		t.Fatal("QUORUM write waited for the blocked remote")
	}
	a, err := db.LocalReplica("a")
	if err != nil {
		t.Fatal(err)
	}
	if rowCount(t, a, "p") != 1 || rowCount(t, wireReplica{b}, "p") != 1 {
		t.Fatal("acked write missing from the in-process replica or the acking remote")
	}
	if rowCount(t, wireReplica{c}, "p") != 0 {
		t.Fatal("blocked remote applied the write")
	}
	c.block <- struct{}{} // let the straggler's Apply through
	<-c.applied
	if rowCount(t, wireReplica{c}, "p") != 1 || db.PendingHints("c") != 0 {
		t.Fatalf("straggler holds %d rows with %d hinted; want 1 and 0", rowCount(t, wireReplica{c}, "p"), db.PendingHints("c"))
	}
}

// TestCoordinatorHintsFailedRemote: a remote that answers a write with an
// error is hinted, a failed hint replay keeps every hint, and RecoverNode
// delivers them once the remote is healthy.
func TestCoordinatorHintsFailedRemote(t *testing.T) {
	db, _, c := mixedRing(t)
	c.setFail(true)
	for i := int64(1); i <= 2; i++ {
		// At ALL the write cannot return before c's answer is in.
		err := db.Put("events", "p", eventRow(i, "d", "MCE", "L"), All)
		if !errors.Is(err, errFakeRemote) {
			t.Fatalf("ALL write with a failing remote: err = %v", err)
		}
	}
	if got := db.PendingHints("c"); got != 2 {
		t.Fatalf("pending hints for the failing remote = %d, want 2", got)
	}
	if _, err := db.RecoverNode("c"); !errors.Is(err, errFakeRemote) {
		t.Fatalf("hint replay to a still-failing remote: err = %v", err)
	}
	if got := db.PendingHints("c"); got != 2 {
		t.Fatalf("a failed replay left %d hinted rows, want 2", got)
	}
	c.setFail(false)
	delivered, err := db.RecoverNode("c")
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || db.PendingHints("c") != 0 || rowCount(t, wireReplica{c}, "p") != 2 {
		t.Fatalf("recovery delivered %d rows, %d still pending, remote holds %d; want 2, 0, 2",
			delivered, db.PendingHints("c"), rowCount(t, wireReplica{c}, "p"))
	}
}

// TestCoordinatorAllLocalReplicasHoldAckedWrite: on a ring hosted wholly
// in process, every replica's own read holds a batch the moment PutBatch
// returns at ONE — in-process replicas are always awaited.
func TestCoordinatorAllLocalReplicasHoldAckedWrite(t *testing.T) {
	db := testDB(t, 3, 3)
	rows := []Row{eventRow(1, "a", "MCE", "L"), eventRow(2, "b", "MCE", "L")}
	if err := db.PutBatch("events", "p", rows, One); err != nil {
		t.Fatal(err)
	}
	for _, id := range db.Ring().Replicas("p") {
		if got := rowCount(t, db.Node(id), "p"); got != len(rows) {
			t.Fatalf("replica %s holds %d rows right after the ack, want %d", id, got, len(rows))
		}
	}
}

// TestCoordinatorHintsFailedLocalReplica: an in-process replica whose
// apply fails (its segment store is closed, and at a flush threshold of
// one row every batch is a round of its own) is hinted like a failed
// remote, and the write still acks on the others.
func TestCoordinatorHintsFailedLocalReplica(t *testing.T) {
	db, err := OpenDurable(Config{Nodes: 3, RF: 3, VNodes: 8, FlushThreshold: 1, Dir: t.TempDir(), WALNoSync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	broken := db.Ring().Replicas("p")[1]
	if err := db.Node(broken).persist.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("events", "p", eventRow(1, "d", "MCE", "L"), Quorum); err != nil {
		t.Fatal(err)
	}
	if got := db.PendingHints(broken); got != 1 {
		t.Fatalf("pending hints for the failed local replica = %d, want 1", got)
	}
}

// partitionRows writes n rows of partition p at ALL, so every replica of
// a mixed ring holds all of them, and returns them. No two rows share
// their cells.
func partitionRows(t *testing.T, db *DB, n int) []Row {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = MapRow(EncodeTS(int64(i))+":d", 0, map[string]string{"type": "MCE", "source": "L", "amount": fmt.Sprint(i)})
	}
	if err := db.PutBatch("events", "p", rows, All); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestFaultPartialScanNeverAnswersGet: a remote whose scan breaks off
// after some rows is a failed replica, not a short answer. Get at One and
// at Quorum returns another replica's complete rows, cell for cell — for
// a partition of many batches, drained off the hop across their
// boundaries — and the partial list never reaches read repair.
func TestFaultPartialScanNeverAnswersGet(t *testing.T) {
	for _, tc := range []struct{ rows, failAfter int }{
		{10, 3},
		{3*MaxBatchRows + 5, MaxBatchRows + 7},
		{20 * MaxBatchRows, 8*MaxBatchRows + 5},
	} {
		t.Run(fmt.Sprint(tc.rows), func(t *testing.T) {
			db, b, c := mixedRing(t)
			want := partitionRows(t, db, tc.rows)
			// Break the remote read first: Quorum reads the local replica and
			// it, One (with the local replica down) reads it alone.
			var first *fakeRemote
			for _, id := range db.Ring().Replicas("p") {
				if id == "b" || id == "c" {
					first = map[string]*fakeRemote{"b": b, "c": c}[id]
					break
				}
			}
			first.scanFailAfter = tc.failAfter
			check := func(cl Consistency) {
				t.Helper()
				rows, err := db.Get("events", "p", Range{}, cl)
				if err != nil || len(rows) != len(want) {
					t.Fatalf("%v read with a broken remote: %d rows, %v; want %d", cl, len(rows), err, len(want))
				}
				for i, r := range rows {
					if r.Key != want[i].Key || !slices.Equal(r.Cols(), want[i].Cols()) {
						t.Fatalf("%v read, row %d: %q %v, want %q %v", cl, i, r.Key, r.ColumnsMap(), want[i].Key, want[i].ColumnsMap())
					}
				}
			}
			check(Quorum)
			if got := db.ReadRepairs(); got != 0 {
				t.Fatalf("read repair wrote back %d rows: a partial list was taken for an answer", got)
			}
			db.Ring().SetUp("a", false)
			check(One)
		})
	}
}

// TestFaultPartialScanFailsRepair: anti-entropy over a replica whose scan
// breaks off returns the error instead of reconciling a partial list.
func TestFaultPartialScanFailsRepair(t *testing.T) {
	db, b, _ := mixedRing(t)
	partitionRows(t, db, 10)
	b.scanFailAfter = 3
	if _, err := db.Repair("events"); !errors.Is(err, errFakeRemote) {
		t.Fatalf("repair over a broken scan: err = %v, want %v", err, errFakeRemote)
	}
}

// remoteOrder returns a mixed ring's two fake remotes in the order a read
// of partition p reaches them: a quorum read opens first beside the local
// replica and keeps spare for a substitute.
func remoteOrder(db *DB, b, c *fakeRemote) (first, spare *fakeRemote) {
	for _, id := range db.Ring().Replicas("p") {
		switch id {
		case "b":
			return b, c
		case "c":
			return c, b
		}
	}
	panic("partition p has no remote replica")
}

// TestFaultQuorumReadHoldsFewBatches: a read above One streams its
// replicas through the merge instead of collecting them. Over a 100 000-row
// partition, at every batch PartitionBatches(Quorum) hands out, no remote
// replica's stream has handed out more than two batches past the rows
// delivered. Repair over a remote that lacks every other row keeps the
// same bound at every write-back, and each write-back carries at most one
// chunk.
func TestFaultQuorumReadHoldsFewBatches(t *testing.T) {
	const n, ahead = 100_000, 2 * MaxBatchRows
	db, b, c := mixedRing(t)
	partitionRows(t, db, n)
	bound := func(what string, delivered int64) bool {
		t.Helper()
		for name, f := range map[string]*fakeRemote{"b": b, "c": c} {
			if got := f.pulled.Load(); got > delivered+ahead {
				t.Errorf("%s: remote %s's stream handed out %d rows with %d delivered, want at most %d more",
					what, name, got, delivered, ahead)
				return false
			}
		}
		return true
	}

	it, err := db.PartitionBatches(context.Background(), "events", "p", Range{}, Quorum, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for batch, ok := it.Next(); ok; batch, ok = it.Next() {
		if delivered += batch.Len(); !bound("PartitionBatches(Quorum)", int64(delivered)) {
			break
		}
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil || delivered != n {
		t.Fatalf("quorum read: %d rows, %v; want %d", delivered, err, n)
	}
	if first, _ := remoteOrder(db, b, c); first.pulled.Load() != n {
		t.Fatalf("the quorum read took %d rows off its remote replica, want %d", first.pulled.Load(), n)
	}

	b.pulled.Store(0)
	c.pulled.Store(0)
	c.mu.Lock()
	var even []Row // the stamped rows at even offsets
	for i, r := range c.parts["events/p"] {
		if i%2 == 0 {
			even = append(even, r)
		}
	}
	c.parts["events/p"] = even
	c.applied = make(chan struct{}, n)
	c.mu.Unlock()
	applies := 0
	c.onApply = func(rows []Row) {
		applies++
		if len(rows) > repairChunk {
			t.Errorf("write-back %d carries %d rows, over the %d-row chunk", applies, len(rows), repairChunk)
		}
		last, err := DecodeTS(rows[len(rows)-1].Key)
		if err != nil {
			t.Fatal(err)
		}
		bound(fmt.Sprintf("Repair write-back %d", applies), last+1)
	}
	copied, err := db.Repair("events")
	if err != nil || copied != n/2 {
		t.Fatalf("repair copied %d rows, %v; want %d", copied, err, n/2)
	}
	if want := (n/2 + repairChunk - 1) / repairChunk; applies != want {
		t.Fatalf("repair wrote back in %d applies, want %d", applies, want)
	}
	if got := rowCount(t, wireReplica{c}, "p"); got != n {
		t.Fatalf("the repaired remote holds %d rows, want %d", got, n)
	}
}

// TestFaultQuorumReadSubstitutesMidStream: a remote whose stream breaks
// off after a quorum read has handed out batches is replaced by the spare
// remote, read from after the last key the broken one delivered. The read
// yields every row once, cell for cell, and writes nothing back.
func TestFaultQuorumReadSubstitutesMidStream(t *testing.T) {
	const n, failAfter = 20 * MaxBatchRows, 8*MaxBatchRows + 5
	db, b, c := mixedRing(t)
	want := partitionRows(t, db, n)
	first, spare := remoteOrder(db, b, c)
	first.scanFailAfter = failAfter
	it, err := db.PartitionBatches(context.Background(), "events", "p", Range{}, Quorum, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []Row
	before := -1 // rows handed out when the spare was first read
	for batch, ok := it.Next(); ok; batch, ok = it.Next() {
		if before < 0 && spare.pulled.Load() > 0 {
			before = len(got)
		}
		for i := range batch.Len() {
			got = append(got, batch.Row(i))
		}
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil || len(got) != n {
		t.Fatalf("quorum read over a remote that breaks off: %d rows, %v; want %d", len(got), err, n)
	}
	for i, r := range got {
		if r.Key != want[i].Key || !slices.Equal(r.Cols(), want[i].Cols()) {
			t.Fatalf("row %d: %q %v, want %q %v", i, r.Key, r.ColumnsMap(), want[i].Key, want[i].ColumnsMap())
		}
	}
	if before <= 0 {
		t.Fatalf("the spare was read after %d rows were handed out: the break came before any batch", before)
	}
	if first.pulled.Load() != failAfter || spare.pulled.Load() != n-failAfter {
		t.Fatalf("the broken remote handed out %d rows and the spare %d, want %d and the %d after them",
			first.pulled.Load(), spare.pulled.Load(), failAfter, n-failAfter)
	}
	if got := db.ReadRepairs(); got != 0 {
		t.Fatalf("the substituted read wrote back %d rows", got)
	}
}
