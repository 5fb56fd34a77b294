package dist_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"hpclog/internal/ingest"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/testutil"
)

// TestClusterCrashRecovery is the durability acceptance for the
// replication layer: at RF=3 with quorum writes (W=2), one replica is
// killed abruptly mid-load — its listener and connections drop like a
// kill -9, its memtables are lost, only the commitlog survives — and:
//
//  1. every write before, during, and after the outage keeps acking
//     (quorum holds with 2 of 3 members);
//  2. after the node rejoins, hinted handoff plus anti-entropy repair
//     converge its local replica to hold EVERY acked batch — nothing
//     acked is lost, even batches the dead node never saw;
//  3. all three replicas end byte-identical per partition.
func TestClusterCrashRecovery(t *testing.T) {
	c := startCluster(t, 3, 3, 64, true)
	c.waitAllUp()

	loader := ingest.NewLoader(c.nodes[0].DB) // CL Quorum
	base := time.Date(2026, 4, 1, 12, 0, 0, 0, time.UTC)
	var acked []model.Event
	write := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			seq := len(acked)
			e := model.Event{
				Time:   base.Add(time.Duration(seq) * time.Second),
				Type:   model.GPUFail,
				Source: fmt.Sprintf("c0-0c0s%dn%d", seq%8, seq%4),
				Count:  1,
				Raw:    fmt.Sprintf("%s-%d", phase, seq),
			}
			if err := loader.LoadEvents([]model.Event{e}); err != nil {
				t.Fatalf("%s write %d not acked: %v", phase, seq, err)
			}
			acked = append(acked, e)
		}
	}

	write("steady", 40)

	// Kill replica n2 abruptly and keep writing: the first writes race the
	// failure detector (replication RPCs fail, hinting inline), the rest
	// land after n2 is marked down (hinting up front). All must ack.
	c.stopNode(2)
	write("outage", 40)
	c.waitDownAt(0, "n2")
	write("down", 40)

	// Rejoin: commitlog replay restores what n2 had applied; hints and
	// anti-entropy must supply everything it missed.
	c.restartNode(2)
	c.waitAllUp()
	write("rejoined", 40)

	// Group the acked events by partition and poll n2's own replica (not a
	// quorum view) until every acked row is present.
	wantKeys := make(map[string]map[string]bool) // pkey -> row keys
	for _, e := range acked {
		pkey := model.EventByTimeKey(e.Hour(), e.Type)
		if wantKeys[pkey] == nil {
			wantKeys[pkey] = make(map[string]bool)
		}
		wantKeys[pkey][model.EventToTimeRow(e).Key] = true
	}
	deadline := time.Now().Add(testutil.Scaled(30 * time.Second))
	for {
		missing := 0
		for pkey, keys := range wantKeys {
			rows, err := ownRows(c.nodes[2].DB, "n2", model.TableEventByTime, pkey)
			if err != nil {
				t.Fatal(err)
			}
			have := make(map[string]bool, len(rows))
			for _, r := range rows {
				have[r.Key] = true
			}
			for k := range keys {
				if !have[k] {
					missing++
				}
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined replica still missing %d of %d acked rows after hints + repair",
				missing, len(acked))
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Convergence: all three replicas answer each partition identically.
	assertReplicasConverged(t, c, model.TableEventByTime, wantKeys)
}

// assertReplicasConverged reads every partition from each member's own
// replica and asserts identical (key, writeTS) sequences.
func assertReplicasConverged(t *testing.T, c *testCluster, table string, parts map[string]map[string]bool) {
	t.Helper()
	deadline := time.Now().Add(testutil.Scaled(30 * time.Second))
	for {
		diverged := ""
		for pkey := range parts {
			var ref []string
			for i, n := range c.nodes {
				rows, err := ownRows(n.DB, c.ids[i], table, pkey)
				if err != nil {
					t.Fatal(err)
				}
				sig := make([]string, len(rows))
				for j, r := range rows {
					sig[j] = fmt.Sprintf("%s@%d", r.Key, r.WriteTS)
				}
				if i == 0 {
					ref = sig
					continue
				}
				if !equalStrings(ref, sig) {
					diverged = fmt.Sprintf("partition %s: %s has %d rows, %s has %d",
						pkey, c.ids[0], len(ref), c.ids[i], len(sig))
				}
			}
		}
		if diverged == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %s", diverged)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ownRows reads one member's own replica of a partition, not a quorum view.
func ownRows(db *store.DB, id, table, pkey string) ([]store.Row, error) {
	n, err := db.LocalReplica(id)
	if err != nil {
		return nil, err
	}
	it, err := n.Batches(context.Background(), table, pkey, store.Range{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var rows []store.Row
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		for i := range b.Len() {
			rows = append(rows, b.Row(i).Clone())
		}
	}
	return rows, it.Err()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
