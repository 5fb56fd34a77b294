package analytics

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/objstore"
	"hpclog/internal/plan"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// histogram runs HistogramFold over typ; on the row path (rows) it takes
// no block whole — the oracle of a histogram that takes blocks.
func histogram(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig, rows bool) ([]int, error) {
	f, err := HistogramFold(from, to, bin)
	if err != nil {
		return nil, err
	}
	if rows {
		f.Take = nil
	}
	acc, err := f.Scan(eng, db, typ, from, to, cfg)
	if err != nil {
		return nil, err
	}
	return acc.Counts(), nil
}

// transferEntropy is the transfer entropy between the histograms of a and
// b, on the row path when rows.
func transferEntropy(eng *compute.Engine, db *store.DB, a, b model.EventType, from, to time.Time, bin time.Duration, cfg ScanConfig, rows bool) (TEResult, error) {
	x, err := histogram(eng, db, a, from, to, bin, cfg, rows)
	if err != nil {
		return TEResult{}, err
	}
	y, err := histogram(eng, db, b, from, to, bin, cfg, rows)
	if err != nil {
		return TEResult{}, err
	}
	return TransferEntropyBetween(x, y)
}

// takeStart is the first second of the taker's test corpus, an hour
// boundary; the corpus spans two hours.
var takeStart = time.Unix(1503468000, 0).UTC()

// absent, as an amount, leaves the amount cell out of the row.
const absent = "\x00"

// takeRows renders n events of typ from takeStart on, three a second from
// the sources of takeSource, amount(i) giving row i's amount cell.
func takeRows(typ model.EventType, n int, amount func(i int) string) []store.Row {
	rows := make([]store.Row, n)
	for i := range rows {
		e := model.Event{Time: takeStart.Add(time.Duration(i/3) * time.Second), Type: typ,
			Source: takeSource(typ, i)}
		cells := map[string]string{}
		if e.Source != absent {
			cells[model.ColSource] = e.Source
		}
		if a := amount(i); a != absent {
			cells[model.ColAmount] = a
		}
		rows[i] = store.MapRow(model.EventToTimeRow(e).Key, 0, cells)
	}
	return rows
}

// takeSource is row i's source for typ: 32 node cnames in turn, but for
// TAKE_ONE one throughout, for TAKE_SPARSE one or — every third row —
// none, for TAKE_MANY, four rows each, 300 in turn — more than a section
// dictionary holds — every tenth a server's, and for TAKE_FLOAT's row 3000
// one of its own.
func takeSource(typ model.EventType, i int) string {
	if typ == "TAKE_FLOAT" && i == 3000 {
		return "c3-0c2s7n3"
	}
	switch typ {
	case "TAKE_ONE":
		return "c1-0c2s3n1"
	case "TAKE_SPARSE":
		if i%3 == 0 {
			return absent
		}
		return "c1-0c2s3n1"
	case "TAKE_MANY":
		if j := i / 4 % 300; j%10 != 9 {
			return fmt.Sprintf("c%d-0c%ds%dn%d", j%4, j/4%3, j/12%8, j/96%4)
		}
		return fmt.Sprintf("login%d", i/4%300)
	}
	return fmt.Sprintf("c0-0c0s%dn%d", i/4%8, i%4)
}

// groupCQL runs SELECT source, COUNT(*) [, SUM(amount)] … GROUP BY source
// over [from, to) of each hour partition of typ through the planner's
// group rule — or, noPrune, through the row path — and returns the rows.
func groupCQL(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, sum, noPrune bool) ([][]plan.ResultRow, error) {
	aggs := []string{""}
	if sum {
		aggs = append(aggs, model.ColAmount)
	}
	var specs []plan.AggSpec
	for _, col := range aggs {
		fn := plan.AggCount
		if col != "" {
			fn = plan.AggSum
		}
		spec, err := plan.NewAggSpec(fn, col)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	var out [][]plan.ResultRow
	for _, hour := range model.HoursIn(from, to) {
		p, err := plan.Build(&plan.Select{
			Table: model.TableEventByTime, Partition: model.EventByTimeKey(hour, typ),
			Columns: []string{model.ColSource}, Aggs: specs, GroupBy: []string{model.ColSource},
			Where: &plan.And{Kids: []plan.Expr{
				plan.NewCmp(plan.NewColRef("key"), plan.OpGe, store.EncodeTS(from.Unix())),
				plan.NewCmp(plan.NewColRef("key"), plan.OpLt, store.EncodeTS(to.Unix())),
			}},
		})
		if err != nil {
			return nil, err
		}
		ex := &plan.Executor{DB: db, Eng: eng, CL: store.One, Opt: plan.ExecOptions{NoPrune: noPrune}}
		rows, err := ex.Run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rows)
	}
	return out, nil
}

// putRows writes rows into their hour partitions of typ.
func putRows(db *store.DB, typ model.EventType, rows []store.Row) error {
	byHour := map[int64][]store.Row{}
	for _, r := range rows {
		ts, err := store.DecodeTS(r.Key)
		if err != nil {
			ts = takeStart.Unix() // a key without a timestamp lives in the first hour
		}
		byHour[ts/3600] = append(byHour[ts/3600], r)
	}
	for hour, rows := range byHour {
		if err := db.PutBatch(model.TableEventByTime, model.EventByTimeKey(hour, typ), rows, store.One); err != nil {
			return err
		}
	}
	return nil
}

// TestHistogramTakesBlocksExactly holds the histogram and transfer-entropy
// folds, which take a block from its footer when it lies in one bin, and
// the heat map and distribution folds and the planner's group rule for
// SELECT source, COUNT(*) [, SUM(amount)] … GROUP BY source, which take a
// block from its group list of sources or the zone map of its one source,
// to the row path — the same folds, and the same plan unpruned, taking
// nothing — on a durable store, and on one whose
// segments are evicted to an object store: the results and the errors
// must be identical. The corpus tempts the takers with amounts that are
// counts only by strconv.Atoi's reading ("+2", "01"), a sum that wraps,
// amounts that are not counts ("0", "-1", "1.0", "0.1", "x", empty,
// absent), a
// key without a timestamp inside a block and one written later over a
// flushed block, one source throughout, and more sources than a section
// dictionary holds; the store holds overlapping segments, a memtable, and
// flushing runs while a writer rewrites rows with their own values; the
// windows cut blocks. A taken block's rows count as scanned. (The v8
// store of testdata is enginetest's TestCorpusFoldsTakeBlocks.)
func TestHistogramTakesBlocksExactly(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		name := "resident"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) { testTakesBlocksExactly(t, tiered) })
	}
}

func testTakesBlocksExactly(t *testing.T, tiered bool) {
	cfg := store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true}
	if tiered {
		cfg.Tier = objstore.Config{Backend: "fs", Dir: t.TempDir(), CacheBytes: 1 << 16}
	}
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	// eng is the engine of the query compare runs: wide, or serial (width 1).
	wide := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	serial := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Parallelism: 1})
	eng := wide
	flush := func() {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if tiered {
			if _, _, err := db.TierSweep(true); err != nil {
				t.Fatal(err)
			}
		}
	}

	const n = 3 * 7200 // two hours
	good := []string{"1", "+2", "01", "7", "1", "1", "3"}
	counts := func(i int) string {
		if i == 5000 || i == 5001 { // one block: their sum wraps
			return strconv.FormatInt(1<<63-1, 10)
		}
		return good[i%len(good)]
	}
	bad := func(at int, v string) func(int) string {
		return func(i int) string {
			if i == at {
				return v
			}
			return counts(i)
		}
	}
	// float tempts the CQL sums: rows 4 and 36, and 5 and 37, start two
	// sources at 2^52 - 0.5, where adding counts one by one rounds otherwise
	// than adding their sum; the sources' rows of the next block count 2
	// then 1, and 1 and 1. Row 3000, of a source of its own, counts 2^53 + 1,
	// past exact float sums.
	float := func(i int) string {
		switch i {
		case 36, 37:
			return "4503599627370494.5"
		case 68:
			return "2"
		case 3000:
			return "9007199254740993"
		}
		return "1"
	}
	ok, ok2 := model.EventType("TAKE_OK"), model.EventType("TAKE_OK2")
	types := map[model.EventType]func(int) string{
		ok:          counts,
		ok2:         func(i int) string { return good[(i/5)%len(good)] },
		"TAKE_ZERO": bad(1234, "0"), "TAKE_NEG": bad(2345, "-1"), "TAKE_FRAC": bad(6001, "1.0"),
		"TAKE_TENTH": bad(6001, "0.1"), "TAKE_X": bad(4000, "x"), "TAKE_EMPTY": bad(9000, ""), "TAKE_ABSENT": bad(17000, absent),
		"TAKE_NOTS": counts, "TAKE_NOTS_LATE": counts, "TAKE_ONE": counts, "TAKE_MANY": counts,
		"TAKE_FLOAT": float, "TAKE_SPARSE": counts,
	}
	// noTS is a key without a timestamp that sorts after the keys of
	// second s and before those of s+1 (s ends in 9).
	noTS := func(s int64) store.Row {
		return store.MapRow(store.EncodeTS(takeStart.Unix() + s)[:18]+"x", 0,
			map[string]string{model.ColSource: "c0-0c0s0n0", model.ColAmount: "1"})
	}
	put := func(typ model.EventType, rows []store.Row) {
		t.Helper()
		if err := putRows(db, typ, rows); err != nil {
			t.Fatal(err)
		}
	}
	for typ, amount := range types {
		rows := takeRows(typ, n, amount)
		if typ == "TAKE_NOTS" {
			rows = append(rows, noTS(1209)) // inside a block of rows
		}
		put(typ, rows)
	}
	flush()

	type query struct {
		name     string
		from, to time.Time
		bin      time.Duration
		cfg      ScanConfig
		eng      *compute.Engine
	}
	var queries []query
	for wi, w := range [][2]time.Duration{{0, 2 * time.Hour}, {37 * time.Second, 5013 * time.Second}, {59*time.Minute + 50*time.Second, 61 * time.Minute}} {
		for _, bin := range []time.Duration{7 * time.Second, time.Minute, 10 * time.Minute, time.Hour} {
			for si, sc := range []ScanConfig{{}, {Slice: 10 * time.Minute}} {
				if w[1]-w[0] < bin || si > 0 && wi > 0 {
					continue
				}
				queries = append(queries, query{fmt.Sprintf("[%v,%v)/%v/slice%v", w[0], w[1], bin, sc.Slice),
					takeStart.Add(w[0]), takeStart.Add(w[1]), bin, sc, []*compute.Engine{wide, serial}[si]})
			}
		}
	}
	sameErr := func(a, b error) bool { return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error()) }
	// sameRows runs the row path, then the taking side, and holds the rows
	// they scanned equal where the taking side succeeds.
	sameRows := func(name string, row, take func() error) {
		t.Helper()
		rows := eng.Stats().ScanRows
		wantErr := row()
		rows, wantRows := eng.Stats().ScanRows, eng.Stats().ScanRows-rows
		if err := take(); err == nil && wantErr == nil && eng.Stats().ScanRows-rows != wantRows {
			t.Fatalf("%s: %d rows scanned, row path %d", name, eng.Stats().ScanRows-rows, wantRows)
		}
	}
	// compare runs every query of every type both ways and returns how many
	// blocks the taking side took for histograms and transfer entropy, for
	// heat maps and distributions, and for the CQL counts.
	compare := func(stage string) (byTime, bySource, byCQL int) {
		t.Helper()
		type window struct {
			from, to time.Time
			cfg      ScanConfig
		}
		seen := map[window]bool{}
		for _, q := range queries {
			eng = q.eng
			if w := (window{q.from, q.to, q.cfg}); !seen[w] {
				seen[w] = true
				before := eng.Stats().BlocksTaken
				for typ := range types {
					name := fmt.Sprintf("%s %s %s", stage, q.name, typ)
					var want, got []int
					var wantErr, err error
					rows := HeatmapFold
					rows.Take = nil
					sameRows(name+" heat map", func() error {
						want, wantErr = rows.Scan(eng, db, typ, q.from, q.to, q.cfg)
						return wantErr
					}, func() error { got, err = HeatmapFold.Scan(eng, db, typ, q.from, q.to, q.cfg); return err })
					if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: heat map %+v (%v), row path %+v (%v)", name, got, err, want, wantErr)
					}
					for _, level := range []topology.Level{topology.LevelCabinet, topology.LevelNode} {
						var want, got []Bucket
						take := DistributionFold(level)
						rows := take
						rows.Take = nil
						sameRows(name+" distribution", func() error {
							acc, err := rows.Scan(eng, db, typ, q.from, q.to, q.cfg)
							want, wantErr = acc.Buckets(), err
							return wantErr
						}, func() error {
							acc, err2 := take.Scan(eng, db, typ, q.from, q.to, q.cfg)
							got, err = acc.Buckets(), err2
							return err
						})
						if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %v distribution %v (%v), row path %v (%v)", name, level, got, err, want, wantErr)
						}
					}
					before := eng.Stats().BlocksTaken
					for _, sum := range []bool{false, true} {
						var want, got [][]plan.ResultRow
						sameRows(name+" CQL", func() error {
							want, wantErr = groupCQL(eng, db, typ, q.from, q.to, sum, true)
							return wantErr
						}, func() error {
							got, err = groupCQL(eng, db, typ, q.from, q.to, sum, false)
							return err
						})
						if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: CQL counts by source (sum %v) %v (%v), row path %v (%v)", name, sum, got, err, want, wantErr)
						}
					}
					byCQL += eng.Stats().BlocksTaken - before
					bySource -= eng.Stats().BlocksTaken - before
				}
				bySource += eng.Stats().BlocksTaken - before
			}
			before := eng.Stats().BlocksTaken
			for typ := range types {
				rows := eng.Stats().ScanRows
				want, wantErr := histogram(eng, db, typ, q.from, q.to, q.bin, q.cfg, true)
				rows, wantRows := eng.Stats().ScanRows, eng.Stats().ScanRows-rows
				got, err := histogram(eng, db, typ, q.from, q.to, q.bin, q.cfg, false)
				if !sameErr(err, wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: histogram %v (%v), row path %v (%v)", stage, q.name, typ, got, err, want, wantErr)
				}
				if gotRows := eng.Stats().ScanRows - rows; err == nil && gotRows != wantRows {
					t.Fatalf("%s %s %s: %d rows scanned, row path %d", stage, q.name, typ, gotRows, wantRows)
				}
			}
			for _, pair := range [][2]model.EventType{{ok, ok2}, {ok2, ok}, {ok, "TAKE_ZERO"}, {"TAKE_NOTS", ok}} {
				want, wantErr := transferEntropy(eng, db, pair[0], pair[1], q.from, q.to, q.bin, q.cfg, true)
				got, err := transferEntropy(eng, db, pair[0], pair[1], q.from, q.to, q.bin, q.cfg, false)
				if !sameErr(err, wantErr) || got != want {
					t.Fatalf("%s %s %v: TE %+v (%v), row path %+v (%v)", stage, q.name, pair, got, err, want, wantErr)
				}
			}
			byTime += eng.Stats().BlocksTaken - before
		}
		return byTime, bySource, byCQL
	}
	mustTake := func(stage string) {
		t.Helper()
		byTime, bySource, byCQL := compare(stage)
		if byTime == 0 || bySource == 0 || byCQL == 0 {
			t.Fatalf("%s: %d blocks taken by time, %d by source, %d by CQL", stage, byTime, bySource, byCQL)
		}
		t.Logf("%s: %d blocks taken by time, %d by source, %d by CQL", stage, byTime, bySource, byCQL)
	}

	mustTake("flushed")

	// Rewrite rows with their own values: a second segment overlapping the
	// first, then a memtable over both. The late key without a timestamp
	// lands in the memtable over a block the taker took before.
	rewrite := func(typ model.EventType, lo, hi int) {
		put(typ, takeRows(typ, n, types[typ])[lo:hi])
	}
	rewrite(ok, 3000, 3500)
	rewrite(ok2, 100, 12000)
	flush()
	mustTake("overlapping segments")
	rewrite(ok, 4000, 4100)
	put("TAKE_NOTS_LATE", []store.Row{noTS(609)})
	mustTake("memtable")

	// Flushing runs: a writer rewrites and flushes while the queries run.
	okRows := takeRows(ok, n, counts)
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 60 && err == nil; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			lo := 300 * i
			if err = putRows(db, ok, okRows[lo:lo+150]); err == nil {
				err = db.Flush()
			}
		}
		done <- err
	}()
	defer func() { // before db.Close
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	compare("flushing")
}
