package store

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errFakeRemote
	}
	f.parts[table+"/"+pkey] = mergeRows(f.parts[table+"/"+pkey], rows)
	f.applied <- struct{}{}
	return nil
}

func (f *fakeRemote) Scan(_ context.Context, table, pkey string, rg Range) (RowIter, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := slices.Clone(sliceRange(f.parts[table+"/"+pkey], rg))
	if k := f.scanFailAfter; k > 0 && k < len(rows) {
		return brokenIter{NewSliceIter(rows[:k])}, nil
	}
	return NewSliceIter(rows), nil
}

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

func rowCount(t *testing.T, r interface {
	Scan(context.Context, string, string, Range) (RowIter, error)
}, pkey string) int {
	t.Helper()
	it, err := r.Scan(context.Background(), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return n
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
	if rowCount(t, a, "p") != 1 || rowCount(t, b, "p") != 1 {
		t.Fatal("acked write missing from the in-process replica or the acking remote")
	}
	if rowCount(t, c, "p") != 0 {
		t.Fatal("blocked remote applied the write")
	}
	c.block <- struct{}{} // let the straggler's Apply through
	<-c.applied
	if rowCount(t, c, "p") != 1 || db.PendingHints("c") != 0 {
		t.Fatalf("straggler holds %d rows with %d hinted; want 1 and 0", rowCount(t, c, "p"), db.PendingHints("c"))
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
	if delivered != 2 || db.PendingHints("c") != 0 || rowCount(t, c, "p") != 2 {
		t.Fatalf("recovery delivered %d rows, %d still pending, remote holds %d; want 2, 0, 2",
			delivered, db.PendingHints("c"), rowCount(t, c, "p"))
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
// apply fails (its commitlog is gone) is hinted like a failed remote, and
// the write still acks on the others.
func TestCoordinatorHintsFailedLocalReplica(t *testing.T) {
	db, err := OpenDurable(Config{Nodes: 3, RF: 3, VNodes: 8, Dir: t.TempDir(), WALNoSync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("events"); err != nil {
		t.Fatal(err)
	}
	broken := db.Ring().Replicas("p")[1]
	if err := db.Node(broken).wal.Close(); err != nil {
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
// a mixed ring holds all of them.
func partitionRows(t *testing.T, db *DB, n int) {
	t.Helper()
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = eventRow(int64(i), "d", "MCE", "L")
	}
	if err := db.PutBatch("events", "p", rows, All); err != nil {
		t.Fatal(err)
	}
}

// TestFaultPartialScanNeverAnswersGet: a remote whose scan breaks off
// after a few rows is a failed replica, not a short answer. Get at One and
// at Quorum returns another replica's complete rows, and the partial list
// never reaches read repair.
func TestFaultPartialScanNeverAnswersGet(t *testing.T) {
	db, b, c := mixedRing(t)
	const n = 10
	partitionRows(t, db, n)
	// Break the remote read first: Quorum reads the local replica and it,
	// One (with the local replica down) reads it alone.
	var first *fakeRemote
	for _, id := range db.Ring().Replicas("p") {
		if id == "b" || id == "c" {
			first = map[string]*fakeRemote{"b": b, "c": c}[id]
			break
		}
	}
	first.scanFailAfter = 3

	rows, err := db.Get("events", "p", Range{}, Quorum)
	if err != nil || len(rows) != n {
		t.Fatalf("QUORUM read with a broken remote: %d rows, %v; want %d", len(rows), err, n)
	}
	if got := db.ReadRepairs(); got != 0 {
		t.Fatalf("read repair wrote back %d rows: a partial list was taken for an answer", got)
	}
	db.Ring().SetUp("a", false)
	rows, err = db.Get("events", "p", Range{}, One)
	if err != nil || len(rows) != n {
		t.Fatalf("ONE read with a broken remote: %d rows, %v; want %d", len(rows), err, n)
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
