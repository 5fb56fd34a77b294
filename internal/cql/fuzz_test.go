package cql

import (
	"testing"
)

// FuzzCQLParse: the parser must never panic, whatever bytes arrive on
// POST /v1/cql. (Errors are fine — panics in the lexer, the recursive-
// descent predicate grammar, or partition extraction are not.) The seed
// corpus doubles as a grammar regression suite under plain `go test`.
func FuzzCQLParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM t WHERE partition = 'p'",
		"SELECT source, amount FROM event_by_time WHERE partition = '412:MCE' AND key >= '001' AND key < '002' LIMIT 5;",
		"SELECT * FROM t WHERE partition = 'p' AND amount > 3 AND (source LIKE 'c2-%' OR type IN ('MCE', 'LUSTRE'))",
		"SELECT * FROM t WHERE partition = 'p' AND NOT (amount != -3.5 OR raw LIKE '%oops%')",
		"SELECT COUNT(*), MIN(amount), MAX(amount), SUM(amount), AVG(amount) FROM t WHERE partition = 'p'",
		"SELECT source, COUNT(*) FROM t WHERE partition = 'p' GROUP BY source LIMIT 10",
		"EXPLAIN SELECT * FROM t WHERE partition = 'p' AND key >= '2017-08-23T06:00:00Z'",
		"INSERT INTO t (partition, key, v) VALUES ('p', 'k', 'it''s')",
		"DESCRIBE TABLES",
		"DESCRIBE TABLE events",
		"SELECT * FROM t WHERE partition = 'p' AND key != 'x'",
		"SELECT * FROM t WHERE (partition = 'p' OR partition = 'q')", // must error, not panic
		"SELECT * FROM t WHERE partition = 'p' AND a IN ()",
		"SELECT * FROM t WHERE partition = 'p' AND a IN ('x',)",
		"SELECT * FROM t WHERE partition = 'p' AND a LIKE",
		"SELECT * FROM t WHERE partition = 'p' GROUP BY x",
		"SELECT COUNT(*) FROM t WHERE partition = 'p' GROUP BY",
		"SELECT * FROM t WHERE partition = 'p' AND ((((a = '1'))))",
		"SELECT * FROM t WHERE partition = 'p' AND a = 1.5 AND b = -2",
		"SELECT * FROM t WHERE partition = 'p' AND a !",
		"SELECT * FROM t WHERE partition = 'p' LIMIT 18446744073709551616",
		"\x00\xff'%%((NOT NOT",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Any error is acceptable; a panic fails the fuzz run.
		_, _ = Parse(src)
	})
}
