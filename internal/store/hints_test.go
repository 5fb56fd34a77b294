package store

import (
	"context"
	"fmt"
	"testing"
)

func TestHintedHandoffDelivery(t *testing.T) {
	db := testDB(t, 5, 3)
	pkey := "3:GPU_FAIL"
	replicas := db.Ring().Replicas(pkey)
	victim := replicas[2]
	db.Ring().SetUp(victim, false)

	for i := 0; i < 30; i++ {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "GPU_FAIL", "L"), Quorum); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.PendingHints(victim); got != 30 {
		t.Fatalf("pending hints = %d, want 30", got)
	}
	// The down node has nothing yet.
	rows, err := readReplica(context.Background(), db.Node(victim), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("down node has %d rows", len(rows))
	}

	delivered, err := db.RecoverNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 30 {
		t.Fatalf("delivered %d hints, want 30", delivered)
	}
	if got := db.PendingHints(victim); got != 0 {
		t.Fatalf("pending after delivery = %d", got)
	}
	rows, err = readReplica(context.Background(), db.Node(victim), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("recovered node has %d rows, want 30", len(rows))
	}
	// No repair needed afterwards: hints already converged this partition.
	copied, err := db.Repair("events")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("repair still copied %d rows after hinted handoff", copied)
	}
}

func TestHintsPerNodeIsolated(t *testing.T) {
	db := testDB(t, 6, 3)
	pkey := "9:MCE"
	replicas := db.Ring().Replicas(pkey)
	db.Ring().SetUp(replicas[1], false)
	db.Ring().SetUp(replicas[2], false)
	if err := db.Put("events", pkey, eventRow(1, "d", "MCE", "L"), One); err != nil {
		t.Fatal(err)
	}
	if db.PendingHints(replicas[1]) != 1 || db.PendingHints(replicas[2]) != 1 {
		t.Fatalf("hints = %d, %d; want 1 each",
			db.PendingHints(replicas[1]), db.PendingHints(replicas[2]))
	}
	if db.PendingHints(replicas[0]) != 0 {
		t.Fatal("live replica accumulated a hint")
	}
	if _, err := db.RecoverNode(replicas[1]); err != nil {
		t.Fatal(err)
	}
	if db.PendingHints(replicas[2]) != 1 {
		t.Fatal("recovering one node consumed another node's hints")
	}
	if _, err := db.RecoverNode(replicas[2]); err != nil {
		t.Fatal(err)
	}
}

func TestReadRepairPatchesStaleReplica(t *testing.T) {
	db := testDB(t, 5, 3)
	pkey := "5:DVS"
	replicas := db.Ring().Replicas(pkey)
	victim := replicas[1]
	db.Ring().SetUp(victim, false)
	for i := 0; i < 20; i++ {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "DVS", "L"), Quorum); err != nil {
			t.Fatal(err)
		}
	}
	// Bring the node back WITHOUT hint delivery or repair: it is stale.
	db.Ring().SetUp(victim, true)
	stale, err := readReplica(context.Background(), db.Node(victim), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("victim unexpectedly has %d rows", len(stale))
	}
	// An ALL read touches every replica and repairs the stale one inline.
	rows, err := db.Get("events", pkey, Range{}, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("ALL read returned %d rows", len(rows))
	}
	if db.ReadRepairs() < 20 {
		t.Fatalf("read repairs = %d, want >= 20", db.ReadRepairs())
	}
	patched, err := readReplica(context.Background(), db.Node(victim), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(patched) != 20 {
		t.Fatalf("victim has %d rows after read repair, want 20", len(patched))
	}
}

func TestReadRepairScopedToRange(t *testing.T) {
	db := testDB(t, 4, 2)
	pkey := "6:NETWORK"
	replicas := db.Ring().Replicas(pkey)
	victim := replicas[1]
	db.Ring().SetUp(victim, false)
	for i := 0; i < 10; i++ {
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "NETWORK", "L"), One); err != nil {
			t.Fatal(err)
		}
	}
	db.Ring().SetUp(victim, true)
	// Read only rows [0, 3): read repair must patch exactly that range.
	rg := Range{From: EncodeTS(0), To: EncodeTS(3)}
	if _, err := db.Get("events", pkey, rg, All); err != nil {
		t.Fatal(err)
	}
	patched, err := readReplica(context.Background(), db.Node(victim), "events", pkey, Range{})
	if err != nil {
		t.Fatal(err)
	}
	if len(patched) != 3 {
		t.Fatalf("victim has %d rows, want only the 3 read-repaired", len(patched))
	}
}

func TestHintsForManyPartitions(t *testing.T) {
	db := testDB(t, 4, 2)
	victim := db.NodeIDs()[0]
	db.Ring().SetUp(victim, false)
	wrote := 0
	for i := 0; i < 100; i++ {
		pkey := fmt.Sprintf("%d:LUSTRE", i)
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "LUSTRE", "L"), One); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	pending := db.PendingHints(victim)
	delivered, err := db.RecoverNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if delivered != pending {
		t.Fatalf("delivered %d of %d pending", delivered, pending)
	}
	// Everything must now be consistent without repair.
	copied, err := db.Repair("events")
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("repair copied %d rows after hint delivery", copied)
	}
}
