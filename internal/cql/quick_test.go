package cql

import (
	"strings"
	"testing"
	"testing/quick"

	"hpclog/internal/store"
)

// quoteCQL escapes a value for a single-quoted CQL string literal.
func quoteCQL(s string) string {
	return strings.ReplaceAll(s, "'", "''")
}

// TestInsertSelectRoundTripProperty: any printable value written through
// the CQL layer reads back intact, including quotes.
func TestInsertSelectRoundTripProperty(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 2, RF: 1, VNodes: 8})
	db.CreateTable("t")
	s := &Session{DB: db, CL: store.One}
	i := 0
	f := func(raw string) bool {
		// Restrict to printable single-line values; the log data model
		// never stores control characters in cells.
		val := strings.Map(func(r rune) rune {
			if r < 0x20 || r == 0x7f {
				return -1
			}
			return r
		}, raw)
		i++
		key := store.EncodeTS(int64(i))
		stmt := "INSERT INTO t (partition, key, v) VALUES ('p', '" + key + "', '" + quoteCQL(val) + "')"
		if _, err := s.Execute(stmt); err != nil {
			return false
		}
		res, err := s.Execute("SELECT v FROM t WHERE partition = 'p' AND key = '" + key + "'")
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		return res.Rows[0].Columns["v"] == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
