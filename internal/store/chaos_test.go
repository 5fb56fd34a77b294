package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestQuorumOverlapReadYourWrites verifies the fundamental tunable-
// consistency guarantee: a row written at QUORUM remains readable at
// QUORUM after any single replica is lost, because write and read quorums
// overlap in at least one node.
func TestQuorumOverlapReadYourWrites(t *testing.T) {
	db := testDB(t, 6, 3)
	for i := 0; i < 200; i++ {
		pkey := fmt.Sprintf("%d:MCE", i)
		if err := db.Put("events", pkey, eventRow(int64(i), "d", "MCE", "L"), Quorum); err != nil {
			t.Fatal(err)
		}
		replicas := db.Ring().Replicas(pkey)
		// Take down each replica in turn; QUORUM reads must still see the
		// row.
		for _, down := range replicas {
			db.Ring().SetUp(down, false)
			rows, err := db.Get("events", pkey, Range{}, Quorum)
			if err != nil {
				t.Fatalf("partition %s with %s down: %v", pkey, down, err)
			}
			if len(rows) != 1 {
				t.Fatalf("partition %s with %s down: %d rows", pkey, down, len(rows))
			}
			db.Ring().SetUp(down, true)
		}
	}
}

// TestChaosWritesDuringNodeChurn runs concurrent writers at QUORUM while
// a chaos goroutine flaps one node at a time. Writes may fail with
// ErrUnavailable (accepted), but every write that succeeded must be
// readable at QUORUM once the cluster heals and repairs.
func TestChaosWritesDuringNodeChurn(t *testing.T) {
	db := testDB(t, 6, 3)
	ids := db.NodeIDs()

	var mu sync.Mutex
	written := make(map[string][]string) // pkey -> clustering keys

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim := ids[rng.Intn(len(ids))]
			db.Ring().SetUp(victim, false)
			db.Ring().SetUp(victim, true)
		}
	}()

	var wg sync.WaitGroup
	const writers, perWriter = 4, 300
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				pkey := fmt.Sprintf("%d:LUSTRE", i%8)
				row := eventRow(int64(w*perWriter+i), fmt.Sprintf("w%d-%d", w, i), "LUSTRE", "L")
				err := db.Put("events", pkey, row, Quorum)
				if err != nil {
					if errors.Is(err, ErrUnavailable) {
						continue // acceptable during churn
					}
					t.Errorf("unexpected write error: %v", err)
					return
				}
				mu.Lock()
				written[pkey] = append(written[pkey], row.Key)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()

	for _, id := range ids {
		db.Ring().SetUp(id, true)
	}
	if _, err := db.Repair("events"); err != nil {
		t.Fatal(err)
	}

	total := 0
	for pkey, keys := range written {
		rows, err := db.Get("events", pkey, Range{}, Quorum)
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[string]bool, len(rows))
		for _, r := range rows {
			have[r.Key] = true
		}
		for _, k := range keys {
			if !have[k] {
				t.Fatalf("acknowledged write %s/%s lost", pkey, k)
			}
		}
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("chaos prevented every write; test proved nothing")
	}
	t.Logf("verified %d acknowledged writes after churn + repair", total)
}

// TestRepairAfterRollingOutage takes nodes down one at a time while
// loading disjoint batches, so every replica set misses some writes, then
// verifies repair converges all replicas to identical contents.
func TestRepairAfterRollingOutage(t *testing.T) {
	db := testDB(t, 5, 3)
	ids := db.NodeIDs()
	pkey := "7:DVS"
	rowsPerPhase := 40
	for phase, victim := range ids {
		db.Ring().SetUp(victim, false)
		for i := 0; i < rowsPerPhase; i++ {
			seq := int64(phase*rowsPerPhase + i)
			if err := db.Put("events", pkey, eventRow(seq, "d", "DVS", "L"), Quorum); err != nil {
				t.Fatal(err)
			}
		}
		db.Ring().SetUp(victim, true)
	}
	if _, err := db.Repair("events"); err != nil {
		t.Fatal(err)
	}
	want := rowsPerPhase * len(ids)
	for _, id := range db.Ring().Replicas(pkey) {
		rows, err := readReplica(context.Background(), db.Node(id), "events", pkey, Range{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Fatalf("replica %s has %d rows after repair, want %d", id, len(rows), want)
		}
	}
}
