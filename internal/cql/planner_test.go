package cql

import (
	"fmt"
	"strings"
	"testing"

	"hpclog/internal/store"
)

// richSession seeds a partition with varied columns for predicate and
// aggregate tests: 60 rows, source cycling c0-0..c2-0 suffixed n0..n3,
// amount 0..59, and a "sev" column on every third row.
func richSession(t testing.TB) *Session {
	t.Helper()
	db := store.Open(store.Config{Nodes: 4, RF: 2, VNodes: 16})
	db.CreateTable("events")
	for i := 0; i < 60; i++ {
		cols := map[string]string{
			"source": fmt.Sprintf("c%d-0c0s0n%d", i%3, i%4),
			"amount": fmt.Sprintf("%d", i),
			"type":   []string{"MCE", "LUSTRE", "APP_ABORT"}[i%3],
		}
		if i%3 == 0 {
			cols["sev"] = "high"
		}
		row := store.MapRow(store.EncodeTS(int64(1000+i)), 0, cols)
		if err := db.Put("events", "p", row, store.Quorum); err != nil {
			t.Fatal(err)
		}
	}
	return &Session{DB: db, CL: store.One}
}

func TestSelectColumnPredicates(t *testing.T) {
	s := richSession(t)
	cases := []struct {
		where string
		want  int
	}{
		{"type = 'MCE'", 20},
		{"type != 'MCE'", 40},
		{"amount < 10", 10},
		{"amount >= 50", 10},
		{"amount >= 9.5 AND amount < 20", 10},
		{"type = 'MCE' AND amount < 30", 10},
		{"(type = 'MCE' OR type = 'LUSTRE')", 40},
		{"type IN ('MCE', 'LUSTRE')", 40},
		{"NOT type = 'MCE'", 40},
		{"NOT sev = 'high'", 40}, // rows without sev match NOT
		{"sev = 'high'", 20},
		{"source LIKE 'c1-%'", 20},
		{"source LIKE '%n3'", 15},
		{"source LIKE 'c1-%n3%'", 5},
		{"(type = 'MCE' OR type = 'LUSTRE') AND amount < 6", 4},
		{"amount IN (1, 2, 3.0)", 3},
		{"key >= '" + store.EncodeTS(1030) + "' AND type = 'MCE'", 10},
	}
	for _, c := range cases {
		res, err := s.Execute("SELECT * FROM events WHERE partition = 'p' AND " + c.where)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if len(res.Rows) != c.want {
			t.Fatalf("%s: %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestProjectionOnlySelectedColumns(t *testing.T) {
	s := richSession(t)
	res, err := s.Execute("SELECT amount FROM events WHERE partition = 'p' AND type = 'MCE' LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r.Columns) != 1 || r.Columns["amount"] == "" {
			t.Fatalf("projection leaked: %+v", r.Columns)
		}
	}
}

func TestAggregates(t *testing.T) {
	s := richSession(t)
	res, err := s.Execute("SELECT COUNT(*), COUNT(sev), MIN(amount), MAX(amount), SUM(amount), AVG(amount) FROM events WHERE partition = 'p'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	got := res.Rows[0].Columns
	want := map[string]string{
		"count(*)":    "60",
		"count(sev)":  "20",
		"min(amount)": "0",
		"max(amount)": "59",
		"sum(amount)": "1770", // 0+..+59
		"avg(amount)": "29.5",
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
}

func TestAggregateWithPredicate(t *testing.T) {
	s := richSession(t)
	res, err := s.Execute("SELECT COUNT(*) FROM events WHERE partition = 'p' AND amount < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Columns["count(*)"] != "10" {
		t.Fatalf("count = %v", res.Rows[0].Columns)
	}
}

func TestGroupBy(t *testing.T) {
	s := richSession(t)
	res, err := s.Execute("SELECT type, COUNT(*), SUM(amount) FROM events WHERE partition = 'p' GROUP BY type")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d groups", len(res.Rows))
	}
	// Groups arrive sorted by group key: APP_ABORT, LUSTRE, MCE.
	if res.Rows[0].Key != "APP_ABORT" || res.Rows[2].Key != "MCE" {
		t.Fatalf("group order: %q, %q, %q", res.Rows[0].Key, res.Rows[1].Key, res.Rows[2].Key)
	}
	for _, r := range res.Rows {
		if r.Columns["count(*)"] != "20" {
			t.Fatalf("group %s count = %v", r.Key, r.Columns)
		}
		if r.Columns["type"] != r.Key {
			t.Fatalf("group column missing: %+v", r.Columns)
		}
	}
	// MCE rows are amounts 0,3,...,57 → sum 570. LUSTRE 1,4,..,58 → 590.
	if res.Rows[2].Columns["sum(amount)"] != "570" {
		t.Fatalf("MCE sum = %v", res.Rows[2].Columns)
	}
	// LIMIT applies after group sort.
	res, err = s.Execute("SELECT type, COUNT(*) FROM events WHERE partition = 'p' GROUP BY type LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Key != "APP_ABORT" {
		t.Fatalf("limited groups: %+v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	s := richSession(t)
	res, err := s.Execute("EXPLAIN SELECT source FROM events WHERE partition = 'p' AND amount > 3 AND key >= '001' LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) == 0 || len(res.Rows) != 0 {
		t.Fatalf("explain result: %+v", res)
	}
	text := strings.Join(res.Plan, "\n")
	for _, want := range []string{"Limit(7)", "Project(source)", "Filter(amount > '3')", "Scan(events['p']", "prune{"} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan missing %q:\n%s", want, text)
		}
	}
}

func TestRFC3339KeyBound(t *testing.T) {
	db := store.Open(store.Config{Nodes: 2, RF: 1, VNodes: 8})
	db.CreateTable("t")
	// 2017-08-23T06:00:00Z == 1503468000.
	for i, ts := range []int64{1503467999, 1503468000, 1503468001} {
		r := store.MapRow(store.EncodeTS(ts), 0, map[string]string{"i": fmt.Sprint(i)})
		if err := db.Put("t", "p", r, store.One); err != nil {
			t.Fatal(err)
		}
	}
	s := &Session{DB: db, CL: store.One}
	res, err := s.Execute("SELECT * FROM t WHERE partition = 'p' AND key >= '2017-08-23T06:00:00Z'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows past the RFC3339 bound, want 2", len(res.Rows))
	}
}

func TestPartitionPlacementErrors(t *testing.T) {
	s := richSession(t)
	bad := []string{
		"SELECT * FROM events WHERE type = 'MCE'",                          // no partition
		"SELECT * FROM events WHERE partition = 'p' OR partition = 'q'",    // nested
		"SELECT * FROM events WHERE partition = 'p' AND partition = 'q'",   // twice
		"SELECT * FROM events WHERE partition != 'p'",                      // non-equality
		"SELECT * FROM events WHERE NOT partition = 'p'",                   // negated
		"SELECT type, COUNT(*) FROM events WHERE partition = 'p'",          // bare col + agg
		"SELECT * FROM events WHERE partition = 'p' GROUP BY type",         // group without agg
		"SELECT SUM(*) FROM events WHERE partition = 'p'",                  // sum star
		"SELECT * FROM events WHERE partition = 'p' AND amount LIKE 3",     // like needs string
		"SELECT * FROM events WHERE partition = 'p' AND (amount > 3 OR  )", // dangling
	}
	for _, q := range bad {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("%q succeeded, want error", q)
		}
	}
}
