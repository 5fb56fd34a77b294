package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func testCluster(t testing.TB, nodes int) (*store.DB, *compute.Engine) {
	t.Helper()
	db, err := store.OpenDurable(store.Config{Nodes: nodes, RF: 2, VNodes: 16, FlushThreshold: 512, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := Bootstrap(db, topology.NodesPerCabinet); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	return db, eng
}

// partitionKeys is DB.PartitionKeys with a failure fatal to the test.
func partitionKeys(t testing.TB, db *store.DB, table string) []string {
	t.Helper()
	keys, err := db.PartitionKeys(context.Background(), table)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func smallCorpus() *logs.Corpus {
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = 2 * time.Hour
	cfg.Jobs.MaxNodes = 32
	cfg.Storms[0].Start = cfg.Start.Add(time.Hour)
	cfg.Storms[0].EventsPerSec = 30
	return logs.Generate(cfg)
}

func TestBootstrapTables(t *testing.T) {
	db, _ := testCluster(t, 4)
	tables := db.Tables()
	if len(tables) != len(model.AllTables) {
		t.Fatalf("bootstrap created %d tables, want %d", len(tables), len(model.AllTables))
	}
	// nodeinfos holds the first cabinet.
	rows, err := db.Get(model.TableNodeInfos, "c0-0", store.Range{}, store.One)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != topology.NodesPerCabinet {
		t.Fatalf("nodeinfos c0-0 has %d rows, want %d", len(rows), topology.NodesPerCabinet)
	}
	types, err := db.Get(model.TableEventTypes, "all", store.Range{}, store.One)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != len(model.EventTypes) {
		t.Fatalf("eventtypes has %d rows", len(types))
	}
}

func TestLoadAndReadBackEvents(t *testing.T) {
	db, _ := testCluster(t, 4)
	corpus := smallCorpus()
	loader := NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	// Count events back out of event_by_time across all partitions and
	// compare with ground truth.
	total := 0
	for _, pkey := range partitionKeys(t, db, model.TableEventByTime) {
		rows, err := db.Get(model.TableEventByTime, pkey, store.Range{}, store.Quorum)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	// Identical (time, type, source) ground-truth events collapse into
	// one row (last write wins), so stored rows <= generated events.
	if total == 0 || total > len(corpus.Events) {
		t.Fatalf("event_by_time holds %d rows for %d events", total, len(corpus.Events))
	}
	// Events are stored once: the per-component table of Fig 1 is a
	// source read of event_by_time, not a table.
	if db.HasTable(model.TableEventByLoc) {
		t.Fatal("the load created event_by_location")
	}
}

func TestBatchImportMatchesGroundTruth(t *testing.T) {
	db, eng := testCluster(t, 4)
	corpus := smallCorpus()
	lines := make([]string, len(corpus.Lines))
	for i, l := range corpus.Lines {
		lines[i] = l.Format()
	}
	res, err := BatchImport(eng, db, lines, store.Quorum, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != len(corpus.Events) || res.Unmatched != 0 || res.Malformed != 0 {
		t.Fatalf("batch import stats %+v for %d events", res, len(corpus.Events))
	}
	if res.EventsLoaded != res.Parsed {
		t.Fatalf("loaded %d of %d parsed", res.EventsLoaded, res.Parsed)
	}
}

func TestBatchImportJobs(t *testing.T) {
	db, eng := testCluster(t, 4)
	corpus := smallCorpus()
	res, err := BatchImportJobs(eng, db, corpus.JobLines, store.Quorum, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != len(corpus.Runs) || res.Malformed != 0 {
		t.Fatalf("job import stats %+v for %d runs", res, len(corpus.Runs))
	}
	// All three views must be queryable.
	run := corpus.Runs[0]
	rows, err := db.Get(model.TableAppByTime, model.AppByTimeKey(run.Hour()), store.Range{}, store.Quorum)
	if err != nil || len(rows) == 0 {
		t.Fatalf("application_by_time empty for hour %d: %v", run.Hour(), err)
	}
	rows, err = db.Get(model.TableAppByUser, run.User, store.Range{}, store.Quorum)
	if err != nil || len(rows) == 0 {
		t.Fatalf("application_by_user empty for %s: %v", run.User, err)
	}
	rows, err = db.Get(model.TableAppByLoc, run.App, store.Range{}, store.Quorum)
	if err != nil || len(rows) == 0 {
		t.Fatalf("application view by name empty for %s: %v", run.App, err)
	}
	got, err := model.AppFromRow(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.App != run.App {
		t.Fatalf("read back app %q from %q partition", got.App, run.App)
	}
}

func TestRefreshSynopsis(t *testing.T) {
	db, eng := testCluster(t, 4)
	corpus := smallCorpus()
	if err := NewLoader(db).LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	start := corpus.Events[0].Time
	end := corpus.Events[len(corpus.Events)-1].Time.Add(time.Second)
	hours := model.HoursIn(start, end)
	if err := RefreshSynopsis(eng, db, hours, store.Quorum); err != nil {
		t.Fatal(err)
	}
	// Synopsis totals must equal ground-truth totals per type.
	truth := map[model.EventType]int{}
	for _, e := range corpus.Events {
		truth[e.Type] += e.Count
	}
	for _, typ := range model.EventTypes {
		rows, err := db.Get(model.TableEventSynopsis, string(typ), store.Range{}, store.Quorum)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, r := range rows {
			c, err := strconv.Atoi(r.Col("count"))
			if err != nil {
				t.Fatal(err)
			}
			got += c
		}
		// Duplicate ground-truth events collapse via LWW, so synopsis can
		// undercount by at most the number of collapsed duplicates.
		if got > truth[typ] || (truth[typ] > 0 && got == 0) {
			t.Fatalf("synopsis for %s = %d, ground truth %d", typ, got, truth[typ])
		}
	}
}

// importOnce bulk-imports lines into a fresh durable store, chunked every
// chunk lines, checks the loader's own count, flushes, and returns the
// store with a digest of what the two event tables hold.
func importOnce(t *testing.T, lines []string, chunk int) (*store.DB, uint64) {
	t.Helper()
	db, err := store.OpenDurable(store.Config{Nodes: 4, Dir: t.TempDir(), WALNoSync: true, CompactInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := Bootstrap(db, topology.NodesPerCabinet); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	chunkLines = chunk
	defer func() { chunkLines = importChunk }()
	res, err := BatchImport(eng, db, lines, store.Quorum, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != len(lines) || res.EventsLoaded != res.Parsed {
		t.Fatalf("import of %d lines: %+v", len(lines), res)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, table := range []string{model.TableEventByTime} {
		for _, pkey := range partitionKeys(t, db, table) {
			rows, err := db.Get(table, pkey, store.Range{}, store.All)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				cols := r.Cols()
				fmt.Fprintf(h, "%s/%s/%s/%d", table, pkey, r.Key, len(cols))
				for _, c := range cols {
					fmt.Fprintf(h, "/%s=%s", store.ColumnName(c.ID), c.Value)
				}
			}
		}
	}
	return db, h.Sum64()
}

// TestBatchImportOrderAndChunks: the store a bulk import leaves does not
// depend on where the chunk boundaries fall nor — once no two lines share
// a key, so that no line order decides a winner — on the order of the
// lines; and a one-chunk import writes every partition exactly once, so
// each is one segment per replica after the flush and nothing is left to
// compact.
func TestBatchImportOrderAndChunks(t *testing.T) {
	corpus := smallCorpus()
	seen := make(map[string]bool)
	var lines, unique []string
	for i, l := range corpus.Lines {
		lines = append(lines, l.Format())
		e := corpus.Events[i]
		if k := fmt.Sprint(e.Time.Unix(), e.Type, e.Source); !seen[k] {
			seen[k] = true
			unique = append(unique, lines[i])
		}
	}
	if len(unique) == len(lines) {
		t.Fatal("corpus has no two lines with one key: last-line-wins goes untested")
	}
	shuffled := slices.Clone(unique)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	db, whole := importOnce(t, lines, importChunk)
	perPartition := make(map[string]int)
	for _, node := range db.SegmentInfos() {
		for _, seg := range node.Segments {
			perPartition[node.Node+"/"+seg.Table+"/"+seg.Partition]++
		}
	}
	for p, n := range perPartition {
		if n != 1 {
			t.Errorf("%s: %d segments after a one-chunk import and a flush, want 1", p, n)
		}
	}
	if n, err := db.Compact(); err != nil || n != 0 {
		t.Errorf("Compact after a one-chunk import merged %d partitions (err=%v), want 0", n, err)
	}
	if st := db.StorageStats(); st.MergePuts != 0 {
		t.Errorf("%d of %d batches fell off the memtable's append path", st.MergePuts, st.MergePuts+st.AppendPuts)
	}

	// 2/7 of the corpus per chunk: four chunks, the hour partitions span
	// several of them.
	if _, chunked := importOnce(t, lines, len(lines)*2/7); chunked != whole {
		t.Error("a chunked import leaves a different store than a one-chunk import")
	}
	_, ordered := importOnce(t, unique, importChunk)
	if _, got := importOnce(t, shuffled, importChunk); got != ordered {
		t.Error("shuffled lines leave a different store than ordered lines")
	}
	if _, got := importOnce(t, shuffled, len(shuffled)/3+1); got != ordered {
		t.Error("shuffled, chunked lines leave a different store than ordered lines")
	}
}

// TestLoadersTolerateUnavailable: with one node down, a quorum of two
// replicas is out of reach for every partition that node serves. A plain
// loader must say so; a loader told to tolerate it skips those partitions
// — in every load, not only the bootstrap tables — and writes the rest.
func TestLoadersTolerateUnavailable(t *testing.T) {
	db, _ := testCluster(t, 4)
	corpus := smallCorpus()
	db.Ring().SetUp(db.NodeIDs()[0], false)
	strict := NewLoader(db)
	if err := strict.LoadEvents(corpus.Events); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("LoadEvents with a node down: %v, want ErrUnavailable", err)
	}
	if err := strict.LoadRuns(corpus.Runs); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("LoadRuns with a node down: %v, want ErrUnavailable", err)
	}
	tolerant := &Loader{DB: db, CL: store.Quorum, TolerateUnavailable: true}
	if err := tolerant.LoadEvents(corpus.Events); err != nil {
		t.Fatalf("tolerant LoadEvents: %v", err)
	}
	if err := tolerant.LoadRuns(corpus.Runs); err != nil {
		t.Fatalf("tolerant LoadRuns: %v", err)
	}
	for _, table := range []string{model.TableEventByTime, model.TableAppByUser} {
		if keys, err := db.PartitionKeys(context.Background(), table); err != nil || len(keys) == 0 {
			t.Fatalf("a tolerant load wrote nothing to the %s partitions that were available: %v", table, err)
		}
	}
}
