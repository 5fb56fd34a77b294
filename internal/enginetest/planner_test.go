package enginetest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/plan"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Planner equivalence: a corpus of CQL statements with column predicates
// and aggregates, executed three ways over the durable engine —
//
//	(1) the pushed-down plan (block pruning + parallel slices),
//	(2) the same plan with pruning disabled and a single slice,
//	(3) a naive scan-then-filter oracle (DB.Get the whole partition,
//	    filter row-by-row with the same expression semantics, project /
//	    aggregate in straight-line test code)
//
// — all three byte-identical as JSON, before and after a Reopen restart,
// and over the wire through POST /v1/cql.

// plannerCorpus builds the statement corpus against the harness's seeded
// data: hour partitions of event_by_time keyed "<hour>:<TYPE>".
func plannerCorpus(h *Harness) []string {
	from, to := h.Window()
	hours := model.HoursIn(from, to)
	hour := hours[len(hours)/2]
	mce := fmt.Sprintf("%d:MCE", hour)
	lustre := fmt.Sprintf("%d:LUSTRE", hour)
	midKey := store.EncodeTS(hour*3600 + 1800)
	return []string{
		// Plain scans and key ranges (the pre-planner grammar).
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "'",
		"SELECT source, amount FROM event_by_time WHERE partition = '" + mce + "' AND key >= '" + midKey + "' LIMIT 40",
		// Column predicates: equality, numeric, LIKE, IN, OR/NOT nesting.
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "' AND source LIKE 'c2-%'",
		"SELECT source FROM event_by_time WHERE partition = '" + mce + "' AND amount >= 2",
		"SELECT * FROM event_by_time WHERE partition = '" + lustre + "' AND (source LIKE '%n1' OR source LIKE '%n3') AND amount < 100",
		"SELECT * FROM event_by_time WHERE partition = '" + lustre + "' AND NOT source LIKE 'c0-%' LIMIT 25",
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "' AND source IN ('c2-0c0s3n1', 'c2-0c0s3n2', 'nope')",
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "' AND amount != 1",
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "' AND key >= '" + midKey + "' AND amount > 0 AND source LIKE 'c%'",
		// A predicate matching nothing (every block prunable).
		"SELECT * FROM event_by_time WHERE partition = '" + mce + "' AND source = 'no-such-source'",
		// Aggregates, global and grouped.
		"SELECT COUNT(*) FROM event_by_time WHERE partition = '" + mce + "'",
		"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM event_by_time WHERE partition = '" + lustre + "'",
		"SELECT COUNT(*) FROM event_by_time WHERE partition = '" + mce + "' AND source LIKE 'c2-%'",
		"SELECT source, COUNT(*), SUM(amount) FROM event_by_time WHERE partition = '" + mce + "' GROUP BY source",
		"SELECT source, COUNT(*) FROM event_by_time WHERE partition = '" + lustre + "' AND amount >= 1 GROUP BY source LIMIT 7",
	}
}

// oracle executes the statement naively: Get the partition, filter with
// Expr.Eval, then project or aggregate in straight-line code.
func oracle(t *testing.T, db *store.DB, src string) []plan.ResultRow {
	t.Helper()
	stmt, err := cql.Parse(src)
	if err != nil {
		t.Fatalf("oracle parse %q: %v", src, err)
	}
	sel := stmt.(*cql.SelectStmt)
	rows, err := db.Get(sel.Table, sel.Partition, store.Range{}, store.One)
	if err != nil {
		t.Fatal(err)
	}
	var kept []store.Row
	for _, r := range rows {
		if sel.Where == nil || sel.Where.Eval(r) {
			kept = append(kept, r)
		}
	}
	if len(sel.Aggs) > 0 {
		return oracleAggregate(sel, kept)
	}
	out := []plan.ResultRow{}
	for _, r := range kept {
		if sel.Limit > 0 && len(out) >= sel.Limit {
			break
		}
		row := plan.ResultRow{Key: r.Key}
		if sel.Columns == nil {
			row.Columns = r.ColumnsMap()
		} else {
			row.Columns = make(map[string]string, len(sel.Columns))
			for _, c := range sel.Columns {
				if v := r.Col(c); v != "" {
					row.Columns[c] = v
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// oracleAggregate recomputes aggregates with an independent, straight-
// line implementation (int64-exact sums over integral data, numeric
// min/max when every cell is numeric).
func oracleAggregate(sel *cql.SelectStmt, rows []store.Row) []plan.ResultRow {
	type cell struct {
		n          int64
		sumI       int64
		sumF       float64
		sumInt     bool
		vals       []string // non-empty cells, for min/max
		numericAll bool
	}
	groups := map[string][]string{}
	cells := map[string][]cell{}
	newCells := func() []cell {
		cs := make([]cell, len(sel.Aggs))
		for i := range cs {
			cs[i].sumInt, cs[i].numericAll = true, true
		}
		return cs
	}
	if len(sel.GroupBy) == 0 {
		groups[""] = nil
		cells[""] = newCells()
	}
	for _, r := range rows {
		gk := ""
		if len(sel.GroupBy) > 0 {
			vals := make([]string, len(sel.GroupBy))
			for i, c := range sel.GroupBy {
				vals[i] = r.Col(c)
			}
			gk = strings.Join(vals, "\x00")
			if _, ok := groups[gk]; !ok {
				groups[gk] = vals
				cells[gk] = newCells()
			}
		}
		cs := cells[gk]
		for i, sp := range sel.Aggs {
			if sp.Col == "" {
				cs[i].n++
				continue
			}
			v := r.Col(sp.Col)
			if v == "" {
				continue
			}
			f, numOK := persist.ParseNum(v)
			switch sp.Fn {
			case plan.AggCount:
				cs[i].n++
			case plan.AggSum, plan.AggAvg:
				if !numOK {
					continue
				}
				cs[i].n++
				cs[i].sumF += f
				if cs[i].sumInt && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
					cs[i].sumI += int64(f)
				} else if cs[i].sumInt {
					cs[i].sumInt = false
				}
			case plan.AggMin, plan.AggMax:
				cs[i].n++
				cs[i].vals = append(cs[i].vals, v)
				if !numOK {
					cs[i].numericAll = false
				}
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return strings.Join(groups[keys[i]], "|") < strings.Join(groups[keys[j]], "|")
	})
	if sel.Limit > 0 && len(keys) > sel.Limit {
		keys = keys[:sel.Limit]
	}
	out := []plan.ResultRow{}
	for _, gk := range keys {
		row := plan.ResultRow{
			Key:     strings.Join(groups[gk], "|"),
			Columns: map[string]string{},
		}
		for i, c := range sel.GroupBy {
			row.Columns[c] = groups[gk][i]
		}
		for i, sp := range sel.Aggs {
			c := cells[gk][i]
			var v string
			switch sp.Fn {
			case plan.AggCount:
				v = strconv.FormatInt(c.n, 10)
			case plan.AggSum:
				switch {
				case c.n == 0:
					v = "0"
				case c.sumInt:
					v = strconv.FormatInt(c.sumI, 10)
				default:
					v = strconv.FormatFloat(c.sumF, 'g', -1, 64)
				}
			case plan.AggAvg:
				if c.n > 0 {
					sum := c.sumF
					if c.sumInt {
						sum = float64(c.sumI)
					}
					v = strconv.FormatFloat(sum/float64(c.n), 'g', -1, 64)
				}
			case plan.AggMin, plan.AggMax:
				if c.n > 0 {
					best := c.vals[0]
					for _, cand := range c.vals[1:] {
						better := false
						if c.numericAll {
							bf, _ := persist.ParseNum(best)
							cf, _ := persist.ParseNum(cand)
							better = (sp.Fn == plan.AggMin && cf < bf) || (sp.Fn == plan.AggMax && cf > bf)
						} else {
							better = (sp.Fn == plan.AggMin && cand < best) || (sp.Fn == plan.AggMax && cand > best)
						}
						if better {
							best = cand
						}
					}
					v = best
				}
			}
			row.Columns[sp.Label()] = v
		}
		out = append(out, row)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runCorpusEquivalence executes every corpus statement pushed-down,
// unpruned-serial, naive-oracle, and over the wire, asserting all four
// byte-identical. Returns total pruning counters of the pushed-down runs.
func runCorpusEquivalence(t *testing.T, h *Harness) (read, pruned int64) {
	t.Helper()
	for _, src := range plannerCorpus(h) {
		var stats persist.PruneStats
		stmt, err := cql.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		sel := stmt.(*cql.SelectStmt)
		p, err := plan.Build(&plan.Select{
			Table: sel.Table, Partition: sel.Partition, Columns: sel.Columns,
			Aggs: sel.Aggs, GroupBy: sel.GroupBy, Where: sel.Where, Limit: sel.Limit,
		})
		if err != nil {
			t.Fatalf("build %q: %v", src, err)
		}
		ex := &plan.Executor{DB: h.DB, Eng: h.Comp, CL: store.One, Stats: &stats}
		pushedRows, err := ex.Run(p)
		if err != nil {
			t.Fatalf("pushed run %q: %v", src, err)
		}
		read += stats.BlocksRead.Load()
		pruned += stats.BlocksPruned.Load()

		serial := &plan.Executor{DB: h.DB, Eng: h.SerialComp, CL: store.One,
			Opt: plan.ExecOptions{NoPrune: true}}
		serialRows, err := serial.Run(p)
		if err != nil {
			t.Fatalf("serial run %q: %v", src, err)
		}
		oracleRows := oracle(t, h.DB, src)

		pj, sj, oj := mustJSON(t, pushedRows), mustJSON(t, serialRows), mustJSON(t, oracleRows)
		if !bytes.Equal(pj, sj) {
			t.Fatalf("pushed-down vs unpruned-serial differ for %q:\npushed: %.400s\nserial: %.400s", src, pj, sj)
		}
		if !bytes.Equal(pj, oj) {
			t.Fatalf("pushed-down vs oracle differ for %q:\npushed: %.400s\noracle: %.400s", src, pj, oj)
		}

		// Wire path: POST /v1/cql through the analytic server and the SDK.
		wire, err := h.Client.Session("").Execute(context.Background(), src)
		if err != nil {
			t.Fatalf("wire %q: %v", src, err)
		}
		wireRows := wire.Rows
		if wireRows == nil {
			wireRows = []plan.ResultRow{}
		}
		if wj := mustJSON(t, wireRows); !bytes.Equal(pj, wj) {
			t.Fatalf("pushed-down vs wire differ for %q:\npushed: %.400s\nwire:   %.400s", src, pj, wj)
		}
	}
	return read, pruned
}

// TestPlannerEquivalenceDurable is the corpus over the durable engine —
// disk segments plus memtable tails — repeated after a restart, where
// every partition answers from recovered segments and commitlog replay.
func TestPlannerEquivalenceDurable(t *testing.T) {
	h := NewDurable(t)
	read, _ := runCorpusEquivalence(t, h)
	if read == 0 {
		t.Fatal("pushed-down corpus never read a segment block; the durable store isn't exercising pruned scans")
	}
	h.Reopen(t)
	if _, err := h.DB.Compact(); err != nil {
		t.Fatal(err)
	}
	runCorpusEquivalence(t, h)
}

// TestPlannerEquivalenceInMemory runs the same corpus against the
// memtable-resident harness (no segments at all): the planner must behave
// identically when there is nothing to prune.
func TestPlannerEquivalenceInMemory(t *testing.T) {
	h := New(t)
	if _, pruned := runCorpusEquivalence(t, h); pruned != 0 {
		t.Fatalf("memtable-resident engine reported %d pruned blocks", pruned)
	}
	resident(t, h)
}
