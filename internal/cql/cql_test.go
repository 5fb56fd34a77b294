package cql

import (
	"fmt"
	"strings"
	"testing"

	"hpclog/internal/store"
)

func session(t testing.TB) *Session {
	t.Helper()
	db := store.Open(store.Config{Nodes: 4, RF: 2, VNodes: 16})
	db.CreateTable("event_by_time")
	for i := 0; i < 50; i++ {
		row := store.MapRow(store.EncodeTS(int64(1000+i))+":src", 0, map[string]string{
			"source": fmt.Sprintf("c0-0c0s0n%d", i%4),
			"amount": "1",
		})
		if err := db.Put("event_by_time", "412:MCE", row, store.Quorum); err != nil {
			t.Fatal(err)
		}
	}
	return &Session{DB: db, CL: store.Quorum}
}

func TestSelectAll(t *testing.T) {
	s := session(t)
	res, err := s.Execute("SELECT * FROM event_by_time WHERE partition = '412:MCE'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0].Columns["amount"] != "1" {
		t.Fatalf("row = %+v", res.Rows[0])
	}
}

func TestSelectRangeAndLimit(t *testing.T) {
	s := session(t)
	from := store.EncodeTS(1010)
	to := store.EncodeTS(1020)
	q := fmt.Sprintf("SELECT source FROM event_by_time WHERE partition = '412:MCE' AND key >= '%s' AND key < '%s' LIMIT 5;", from, to)
	res, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows with LIMIT 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Key < from || r.Key >= to {
			t.Fatalf("row %s outside range", r.Key)
		}
		if _, ok := r.Columns["amount"]; ok {
			t.Fatal("projection leaked unselected column")
		}
		if r.Columns["source"] == "" {
			t.Fatal("selected column missing")
		}
	}
}

func TestSelectBoundVariants(t *testing.T) {
	s := session(t)
	k := store.EncodeTS(1010) + ":src"
	cases := []struct {
		cond string
		want int
	}{
		{fmt.Sprintf("key > '%s'", k), 39},
		{fmt.Sprintf("key >= '%s'", k), 40},
		{fmt.Sprintf("key < '%s'", k), 10},
		{fmt.Sprintf("key <= '%s'", k), 11},
		{fmt.Sprintf("key = '%s'", k), 1},
	}
	for _, c := range cases {
		q := "SELECT * FROM event_by_time WHERE partition = '412:MCE' AND " + c.cond
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		if len(res.Rows) != c.want {
			t.Fatalf("%s: %d rows, want %d", c.cond, len(res.Rows), c.want)
		}
	}
}

func TestInsertThenSelect(t *testing.T) {
	s := session(t)
	res, err := s.Execute("INSERT INTO event_by_time (partition, key, type, amount) VALUES ('9:GPU_FAIL', 'k1', 'GPU_FAIL', '3')")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("insert not applied")
	}
	got, err := s.Execute("SELECT * FROM event_by_time WHERE partition = '9:GPU_FAIL'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Columns["amount"] != "3" {
		t.Fatalf("rows = %+v", got.Rows)
	}
}

func TestDescribe(t *testing.T) {
	s := session(t)
	res, err := s.Execute("DESCRIBE TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0] != "event_by_time" {
		t.Fatalf("tables = %v", res.Tables)
	}
	res, err = s.Execute("DESCRIBE TABLE event_by_time")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schema) != 2 {
		t.Fatalf("schema = %v", res.Schema)
	}
	if _, err := s.Execute("DESCRIBE TABLE ghost"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestStringEscaping(t *testing.T) {
	s := session(t)
	if _, err := s.Execute("INSERT INTO event_by_time (partition, key, raw) VALUES ('p', 'k', 'it''s broken')"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute("SELECT raw FROM event_by_time WHERE partition = 'p'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Columns["raw"] != "it's broken" {
		t.Fatalf("raw = %q", res.Rows[0].Columns["raw"])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DELETE FROM x",
		"SELECT * FROM event_by_time", // no WHERE
		"SELECT * FROM event_by_time WHERE key >= 'a'", // no partition
		"SELECT * FROM event_by_time WHERE partition = 'p' LIMIT 0",
		"SELECT * FROM event_by_time WHERE partition = 'p' LIMIT x",
		"SELECT * FROM event_by_time WHERE bogus = 'p'",
		"SELECT FROM event_by_time WHERE partition = 'p'",
		"INSERT INTO t (key) VALUES ('k')",            // missing partition
		"INSERT INTO t (partition, key) VALUES ('p')", // arity
		"INSERT INTO t (partition, key) VALUES ('p', 'k') extra",
		"SELECT * FROM t WHERE partition = 'p' AND key ~ 'x'",
		"SELECT * FROM t WHERE partition = unquoted",
		"DESCRIBE",
		"SELECT * FROM t WHERE partition = 'unterminated",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("SELECT ~ FROM"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := lex("'open"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestExecuteAgainstMissingTable(t *testing.T) {
	s := session(t)
	if _, err := s.Execute("SELECT * FROM ghost WHERE partition = 'p'"); err == nil {
		t.Fatal("select from missing table succeeded")
	}
	if _, err := s.Execute("INSERT INTO ghost (partition, key) VALUES ('p', 'k')"); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	s := session(t)
	res, err := s.Execute("select * from event_by_time where partition = '412:MCE' limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
}

func TestSelectColumnsOrderPreserved(t *testing.T) {
	st, err := Parse("SELECT source, amount FROM t WHERE partition = 'p'")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if strings.Join(sel.Columns, ",") != "source,amount" {
		t.Fatalf("columns = %v", sel.Columns)
	}
}
