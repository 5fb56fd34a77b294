package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/plan"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// The differential tests of the batch encoders: rows drawn from a seed
// are written to a resident and to a durable store (half of them flushed
// into segment blocks, half left in the memtable), then read back two
// ways — by the scans and encoders every row result leaves the server
// through, and by a chain of rows and records, the oracle: store.Row →
// model.EventFromTimeRow → query.EventRecord →
// encoding/json for events, store.Row → the residual filter → a
// projected column map → encoding/json for CQL rows. The bytes, and the
// error a bad row fails the read with, must be the same.

// rowStores are the stores every differential input is written to, each
// input under a partition of its own: a store that keeps every row in its
// memtables, so it never encodes a block, and one that flushes half of
// each input to a segment. They are replaced every storeInputs inputs, so
// that a long fuzzing run does not pile up open segment files.
type rowStores struct {
	dir  string
	dbs  []*store.DB // the memtable-resident store, then the flushing one
	eng  *compute.Engine
	next int64
}

const storeInputs = 64

func newRowStores(tb testing.TB) *rowStores {
	rs := &rowStores{dir: tb.TempDir(), eng: compute.NewEngine(compute.Config{Workers: []string{"w"}})}
	tb.Cleanup(rs.close)
	return rs
}

func (rs *rowStores) close() {
	for _, db := range rs.dbs {
		db.Close()
	}
	rs.dbs = nil
}

// input readies the stores for the next input and returns its number.
func (rs *rowStores) input(tb testing.TB) int64 {
	if rs.next++; rs.dbs == nil || rs.next%storeInputs == 0 {
		rs.close()
		for i, flushes := range []bool{false, true} {
			cfg := store.Config{Nodes: 2, RF: 2, VNodes: 8, Dir: filepath.Join(rs.dir, fmt.Sprint(rs.next, "-", i)), WALNoSync: true}
			if !flushes {
				cfg.FlushThreshold, cfg.CompactInterval = 1<<30, -1
			}
			db, err := store.OpenDurable(cfg)
			if err != nil {
				tb.Fatal(err)
			}
			rs.dbs = append(rs.dbs, db)
		}
		for _, db := range rs.dbs {
			for _, table := range []string{model.TableEventByTime, "t"} {
				if err := db.CreateTable(table); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return rs.next
}

// put writes rows to partition pkey of every store: the first half, then
// a flush of the flushing store, then the rest.
func (rs *rowStores) put(tb testing.TB, table, pkey string, rows []store.Row) {
	resident, flushing := rs.dbs[0], rs.dbs[1]
	for _, db := range rs.dbs {
		half := len(rows) / 2
		if err := db.PutBatch(table, pkey, cloneRows(rows[:half]), store.All); err != nil {
			tb.Fatal(err)
		}
		if db == flushing {
			if err := db.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.PutBatch(table, pkey, cloneRows(rows[half:]), store.All); err != nil {
			tb.Fatal(err)
		}
	}
	if n := resident.StorageStats().DiskSegments; n != 0 {
		tb.Fatalf("the memtable-resident store wrote %d segments", n)
	}
}

func cloneRows(rows []store.Row) []store.Row {
	out := make([]store.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// hostileValues are cell values the encoders must escape, replace or keep
// apart from an absent cell.
var hostileValues = []string{
	"", "x", "MCE", "c0-0c0s0n0", `say "hi"`, `back\slash`, "<b>&amp;</b>", "\x00\x01\x1f", "\xff\xfe", "\xc3",
	"  ", "é日本😀", "line\nbreak\ttab", strings.Repeat("long ", 40),
}

// gen values drawn from the seed.
func (g *gen) pick(vals []string) string { return vals[int(g.byte())%len(vals)] }

// eventRows draws event-shaped rows for partition hour h: mostly
// timestamped keys in the hour, sometimes keys without a timestamp; the
// cells a scan reads, present, empty or absent; attributes by the dozen.
func (g *gen) eventRows(hour int64, disc string) []store.Row {
	n := 1 + int(g.byte())%90
	keys := map[string]bool{}
	var rows []store.Row
	for i := 0; i < n; i++ {
		var key string
		switch g.byte() % 48 {
		case 0:
			key = g.pick([]string{"short", "zzzz", "0000000001502000000", "00000000015020000x0:a", "\x00", "\xff\xff"})
		case 1, 2:
			key = store.EncodeTS(hour*3600+int64(g.byte())*14) + ":" + g.pick(hostileValues)
		default: // a narrow key space, so that type partitions share keys
			key = store.EncodeTS(hour*3600+int64(g.byte()%32)*100) + ":" + g.pick(hostileValues[:4])
		}
		if keys[key] {
			continue
		}
		keys[key] = true
		cols := map[string]string{}
		switch g.byte() % 32 {
		case 0: // absent
		case 1:
			cols[model.ColAmount] = g.pick([]string{"0", "-1", "x", "", " 1"})
		default:
			cols[model.ColAmount] = g.pick([]string{"1", "2", "17"})
		}
		if g.byte()%4 != 0 {
			cols[model.ColSource] = g.pick(hostileValues)
			cols["type"] = g.pick([]string{disc, disc, "MCE", "LUSTRE", ""})
		}
		switch n := g.byte() % 64; {
		case n == 0:
			cols[model.ColRaw] = strings.Repeat("70 KiB of message <&> ", 70<<10/22)
		case n >= 16: // else absent
			cols[model.ColRaw] = g.pick(hostileValues)
		}
		na := int(g.byte() % 8)
		if na == 7 {
			na = 17 + int(g.byte()%8) // more than a stack-sized scratch holds
		}
		for a := na; a > 0; a-- {
			cols["attr."+g.pick([]string{"a", "b", "c", "bank", "z", "", "é", fmt.Sprint(a)})] = g.pick(hostileValues)
		}
		if g.byte()%4 == 0 {
			cols[g.pick([]string{"attr", "zz", "attrx"})] = g.pick(hostileValues)
		}
		rows = append(rows, store.MapRow(key, 0, cols))
	}
	return rows
}

// oracleEvents reads event_by_time partitions as rows and encodes each
// event with encoding/json: rows merged on (key, type) across partitions,
// each decoded by the model. With source set only that source's rows are
// kept, each partition's in key order merged on (time, type) — a key
// without a timestamp sorting first — of which a row sharing (time, type)
// with the last kept is dropped; a row is decoded at time:type, the key of
// the per-component table, unless its key has no timestamp.
func oracleEvents(tb testing.TB, db *store.DB, pkeys []string, source string) (string, string) {
	type row struct {
		pkey, typ string
		ts        int64
		r         store.Row
	}
	var parts [][]row
	for _, pkey := range pkeys {
		it, err := db.ScanPartitionPruned(model.TableEventByTime, pkey, store.Range{}, store.One, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		var part []row
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			_, typ, _ := strings.Cut(pkey, ":")
			ts, err := store.DecodeTS(r.Key)
			if err != nil {
				ts = -1
			}
			if source == "" || r.ColID(model.ColSourceID) == source {
				part = append(part, row{pkey, typ, ts, r.Clone()})
			}
		}
		if err := it.Err(); err != nil {
			tb.Fatal(err)
		}
		it.Close()
		parts = append(parts, part)
	}
	var all []row
	if source == "" {
		for _, part := range parts {
			all = append(all, part...)
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].r.Key != all[j].r.Key {
				return all[i].r.Key < all[j].r.Key
			}
			return len(pkeys) > 1 && all[i].typ < all[j].typ
		})
	} else {
		for {
			m := -1
			for i, part := range parts {
				if len(part) > 0 && (m < 0 || part[0].ts < parts[m][0].ts || part[0].ts == parts[m][0].ts && part[0].typ < parts[m][0].typ) {
					m = i
				}
			}
			if m < 0 {
				break
			}
			if a, n := parts[m][0], len(all); a.ts < 0 || n == 0 || all[n-1].ts != a.ts || all[n-1].typ != a.typ {
				all = append(all, a)
			}
			parts[m] = parts[m][1:]
		}
	}
	var out bytes.Buffer
	for _, a := range all {
		if source != "" && a.ts >= 0 {
			a.r.Key = store.EncodeTS(a.ts) + ":" + a.typ
		}
		e, err := model.EventFromTimeRow(a.pkey, a.r)
		if err != nil {
			return out.String(), err.Error()
		}
		b, err := json.Marshal(query.EventRecord{Time: e.Time.Unix(), Type: string(e.Type), Source: e.Source, Count: e.Count, Raw: e.Raw, Attrs: e.Attrs})
		if err != nil {
			tb.Fatal(err)
		}
		out.Write(append(b, '\n'))
	}
	return out.String(), ""
}

// scanEvents reads the same rows through the events scanner and encodes
// each view with AppendEventRow.
func scanEvents(db *store.DB, typ model.EventType, source string, hour int64) (string, string) {
	from := time.Unix(hour*3600, 0)
	tasks := analytics.PlanEvents(typ, source, from, from.Add(time.Hour), analytics.ScanConfig{Slice: time.Hour})
	t := tasks[0]
	t.Range = store.Range{} // every key, those without a timestamp included
	var out []byte
	err := t.Run(context.Background(), db, func(r *analytics.EventRow) error {
		out = append(AppendEventRow(out, r), '\n')
		return nil
	})
	if err != nil {
		return string(out), err.Error()
	}
	return string(out), ""
}

func checkEventBatchEncode(t *testing.T, rs *rowStores, seed []byte) {
	g := &gen{data: seed}
	n := rs.input(t)
	hour := 400000 + n
	src := g.pick(hostileValues[1:])
	types := []model.EventType{model.MCE, model.Lustre, model.DVS}
	for _, typ := range types[:1+int(g.byte())%3] {
		rs.put(t, model.TableEventByTime, model.EventByTimeKey(hour, typ), g.eventRows(hour, string(typ)))
	}
	var allKeys []string
	for _, typ := range model.EventTypes {
		allKeys = append(allKeys, model.EventByTimeKey(hour, typ))
	}
	for _, db := range rs.dbs {
		for _, c := range []struct {
			label  string
			typ    model.EventType
			source string
			pkeys  []string
		}{
			{"by type", model.MCE, "", []string{model.EventByTimeKey(hour, model.MCE)}},
			{"all types", "", "", allKeys},
			{"by source", "", src, allKeys},
			{"source+type", model.MCE, src, []string{model.EventByTimeKey(hour, model.MCE)}},
		} {
			want, wantErr := oracleEvents(t, db, c.pkeys, c.source)
			got, gotErr := scanEvents(db, c.typ, c.source, hour)
			if got != want || gotErr != wantErr {
				t.Fatalf("%s: the scan encodes\n%s(error %q)\nthe row chain\n%s(error %q)", c.label, got, gotErr, want, wantErr)
			}
		}
	}
}

// FuzzEventBatchEncode: the events scanner plus AppendEventRow write
// exactly the bytes the Row → model.Event → EventRecord → encoding/json
// chain writes, and fail on exactly the row and with exactly the error it
// fails with, for every request shape.
func FuzzEventBatchEncode(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(seedBytes(i, 4096))
	}
	rs := newRowStores(f)
	f.Fuzz(func(t *testing.T, seed []byte) { checkEventBatchEncode(t, rs, seed) })
}

// seedBytes is a cheap deterministic byte stream; every i differs.
func seedBytes(i, n int) []byte {
	seed := make([]byte, n)
	x := uint32(i)*2654435761 + 7
	for j := range seed {
		x = x*1664525 + 1013904223
		seed[j] = byte(x >> 24)
	}
	return seed
}

// statements draws a row-returning SELECT over partition p of table t.
func (g *gen) statement(p string) string {
	cols := []string{"c0", "c1", "c2", "attr.a", "nosuch", "raw"}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if g.byte()%3 == 0 {
		sb.WriteString("*")
	} else {
		for n := 1 + int(g.byte())%4; n > 0; n-- {
			sb.WriteString(g.pick(cols))
			if n > 1 {
				sb.WriteString(", ")
			}
		}
	}
	fmt.Fprintf(&sb, " FROM t WHERE partition = '%s'", p)
	lits := []string{"a", "b", "", "x1", "0", "10"}
	for n := int(g.byte()) % 3; n > 0; n-- {
		c, v := g.pick(cols), g.pick(lits)
		switch g.byte() % 7 {
		case 0:
			fmt.Fprintf(&sb, " AND %s = '%s'", c, v)
		case 1:
			fmt.Fprintf(&sb, " AND %s != '%s'", c, v)
		case 2:
			fmt.Fprintf(&sb, " AND %s LIKE '%s%%'", c, v)
		case 3:
			fmt.Fprintf(&sb, " AND %s IN ('%s', '%s')", c, v, g.pick(lits))
		case 4:
			fmt.Fprintf(&sb, " AND (%s = '%s' OR NOT %s > '%s')", c, v, g.pick(cols), g.pick(lits))
		case 5:
			fmt.Fprintf(&sb, " AND key >= '%s'", g.pick([]string{"k1", "k5", "0000000001502000100"}))
		default:
			fmt.Fprintf(&sb, " AND key < '%s'", g.pick([]string{"k5", "k9", "0000000001502003000"}))
		}
	}
	if g.byte()%3 == 0 {
		fmt.Fprintf(&sb, " LIMIT %d", 1+int(g.byte())%20)
	}
	return sb.String()
}

// tableRows draws rows of free-form columns: empty and absent cells, keys
// that are timestamps or not.
func (g *gen) tableRows() []store.Row {
	var rows []store.Row
	keys := map[string]bool{}
	for n := 1 + int(g.byte())%120; n > 0; n-- {
		key := "k" + fmt.Sprint(g.byte()%100)
		if g.byte()%2 == 0 {
			key = store.EncodeTS(1502000000+int64(g.byte())*15) + ":" + g.pick(hostileValues)
		}
		if keys[key] {
			continue
		}
		keys[key] = true
		cols := map[string]string{}
		for c := int(g.byte() % 6); c > 0; c-- {
			cols[g.pick([]string{"c0", "c1", "c2", "c3", "attr.a", "raw"})] = g.pick(append([]string{"a", "b", "x1", "10"}, hostileValues...))
		}
		rows = append(rows, store.MapRow(key, 0, cols))
	}
	return rows
}

// oracleSelect executes the plan on rows: the rows of the partition,
// the residual filter evaluated row by row, the projection as a map, the
// LIMIT counted, each row through encoding/json.
func oracleSelect(tb testing.TB, db *store.DB, p *plan.Plan, cl store.Consistency) string {
	// At One the row scan, above it the reconciled rows of Get.
	var rows []store.Row
	if cl == store.One {
		it, err := db.ScanPartitionPruned(p.Sel.Table, p.Sel.Partition, p.Range, cl, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for r, ok := it.Next(); ok; r, ok = it.Next() {
			rows = append(rows, r)
		}
		if err := it.Err(); err != nil {
			tb.Fatal(err)
		}
		it.Close()
	} else {
		var err error
		if rows, err = db.Get(p.Sel.Table, p.Sel.Partition, p.Range, cl); err != nil {
			tb.Fatal(err)
		}
	}
	var out bytes.Buffer
	n := 0
	for _, r := range rows {
		if p.Sel.Limit > 0 && n >= p.Sel.Limit {
			break
		}
		if p.Filter != nil && !p.Filter.Eval(r) {
			continue
		}
		row := plan.ResultRow{Key: r.Key}
		if p.Sel.Columns == nil {
			// A row without cells has "columns":null (API.md) — which the
			// chain gave on disk but not for a row still in a memtable.
			if row.Columns = r.ColumnsMap(); len(row.Columns) == 0 {
				row.Columns = nil
			}
		} else {
			row.Columns = map[string]string{}
			for _, c := range p.Sel.Columns {
				if v := r.Col(c); v != "" {
					row.Columns[c] = v
				}
			}
		}
		b, err := json.Marshal(row)
		if err != nil {
			tb.Fatal(err)
		}
		out.Write(append(b, '\n'))
		n++
	}
	return out.String()
}

// scanSelect executes it the way the server does: the plan's row tasks in
// order, each selected row through Fields and AppendResultRow, cut at the
// LIMIT.
func scanSelect(tb testing.TB, ex *plan.Executor, p *plan.Plan) string {
	tasks, done, err := ex.RowTasks(p)
	if err != nil {
		tb.Fatal(err)
	}
	defer done()
	var out []byte
	var fields []plan.Field
	n := 0
	for _, task := range tasks {
		err := task(func(b *store.Batch, i int) error {
			if p.Sel.Limit > 0 && n >= p.Sel.Limit {
				return errStop
			}
			fields = p.Fields(fields[:0], b, i)
			out = append(AppendResultRow(out, b.Keys()[i], fields), '\n')
			n++
			return nil
		})
		if err != nil && err != errStop {
			tb.Fatal(err)
		}
	}
	return string(out)
}

var errStop = fmt.Errorf("stop")

func checkResultRowBatchEncode(t *testing.T, rs *rowStores, seed []byte) {
	g := &gen{data: seed}
	pkey := fmt.Sprintf("p%d", rs.input(t))
	rs.put(t, "t", pkey, g.tableRows())
	for n := 0; n < 4; n++ {
		src := g.statement(pkey)
		stmt, err := cql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		sel := stmt.(*cql.SelectStmt)
		for _, db := range rs.dbs {
			for _, cl := range []store.Consistency{store.One, store.Quorum} {
				p, err := plan.Build(&plan.Select{Table: sel.Table, Partition: sel.Partition, Columns: sel.Columns, Where: sel.Where, Limit: sel.Limit})
				if err != nil {
					t.Fatal(err)
				}
				ex := &plan.Executor{DB: db, Eng: rs.eng, CL: cl}
				if got, want := scanSelect(t, ex, p), oracleSelect(t, db, p, cl); got != want {
					t.Fatalf("%s at %v: the batch encoder writes\n%s\nthe row chain\n%s", src, cl, got, want)
				}
			}
		}
	}
}

// FuzzResultRowBatchEncode: a row-returning SELECT — SELECT * or a
// projection, any filter, any LIMIT, at consistency One or reconciled at
// Quorum — encoded off its batches by the plan's row tasks and
// AppendResultRow is byte for byte the row chain through
// encoding/json.
func FuzzResultRowBatchEncode(f *testing.F) {
	for i := 0; i < 8; i++ {
		f.Add(seedBytes(i+100, 2048))
	}
	rs := newRowStores(f)
	f.Fuzz(func(t *testing.T, seed []byte) { checkResultRowBatchEncode(t, rs, seed) })
}
