package store

import (
	"context"
	"testing"
)

// TestLWWTieConverges writes two versions of one key at one WriteTS, v=A
// and v=B, to the two replicas of an RF-2 partition through Node.apply:
// both to each replica in opposite orders, or one to each, the versions
// resident in memtables or each flushed as it lands. Whatever reached
// which replica in which order, after Repair both replicas hold the
// version with the greater cells (B), Repair copied a row exactly where
// the replicas disagreed, and Get(All) returns B.
func TestLWWTieConverges(t *testing.T) {
	a := MapRow("k", 100, map[string]string{"v": "A"})
	b := MapRow("k", 100, map[string]string{"v": "B"})
	for _, sh := range []struct {
		name   string
		writes [2][]Row // per replica, in the order applied
		copied int
	}{
		{"opposite-orders", [2][]Row{{a, b}, {b, a}}, 0},
		{"one-each", [2][]Row{{a}, {b}}, 1},
		{"one-each-swapped", [2][]Row{{b}, {a}}, 1},
	} {
		for _, flush := range []bool{false, true} {
			name := sh.name + "/memtable"
			if flush {
				name = sh.name + "/flushed"
			}
			t.Run(name, func(t *testing.T) {
				ctx := context.Background()
				db, err := OpenDurable(Config{Nodes: 2, RF: 2, VNodes: 8, Dir: t.TempDir(), CompactInterval: -1, WALNoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.CreateTable("t"); err != nil {
					t.Fatal(err)
				}
				ids := db.NodeIDs()
				for i, id := range ids {
					for _, r := range sh.writes[i] {
						if err := db.Node(id).apply(ctx, "t", "p", []Row{r}, nil); err != nil {
							t.Fatal(err)
						}
						if flush {
							if err := db.Flush(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				copied, err := db.Repair("t")
				if err != nil {
					t.Fatal(err)
				}
				if copied != sh.copied {
					t.Errorf("Repair copied %d rows, want %d", copied, sh.copied)
				}
				for _, id := range ids {
					rows, err := readReplica(ctx, db.Node(id), "t", "p", Range{})
					if err != nil {
						t.Fatal(err)
					}
					if len(rows) != 1 || rows[0].Col("v") != "B" {
						t.Errorf("replica %s holds %v after Repair, want v=B", id, rows)
					}
				}
				rows, err := db.Get("t", "p", Range{}, All)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 1 || rows[0].Col("v") != "B" {
					t.Errorf("Get(All) returns %v, want v=B", rows)
				}
			})
		}
	}
}
