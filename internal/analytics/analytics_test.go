package analytics

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/ingest"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// openShared opens the store of the fixture the package's tests share,
// under a directory of its own that TestMain removes.
func openShared(t testing.TB, cfg store.Config) *store.DB {
	t.Helper()
	dir, err := os.MkdirTemp("", "hpclog-fixture-")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir, cfg.WALNoSync = dir, true
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMain closes the shared fixture's store and removes its directory.
func TestMain(m *testing.M) {
	code := m.Run()
	if shared != nil {
		shared.db.Close()
		os.RemoveAll(shared.db.Config().Dir)
	}
	os.Exit(code)
}

// openStore opens cfg under a fresh test directory with the commitlog
// unsynced, and closes it when the test ends.
func openStore(t testing.TB, cfg store.Config) *store.DB {
	t.Helper()
	cfg.Dir, cfg.WALNoSync = t.TempDir(), true
	db, err := store.OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// fixture loads one deterministic corpus into a small cluster, shared by
// all tests in the package.
type fixture struct {
	cfg    logs.Config
	corpus *logs.Corpus
	db     *store.DB
	eng    *compute.Engine
}

var shared *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = 4 * topology.NodesPerCabinet // cabinets c0-0, c1-0, c2-0, c3-0
	cfg.Duration = 3 * time.Hour
	// Enough background Lustre activity for isolated cause→effect pairs,
	// so the injected causality is visible outside the storm burst too.
	cfg.BaseRates[model.Lustre] = 0.5
	cfg.Causal = []logs.CausalRule{{
		Cause:  model.Lustre,
		Effect: model.AppAbort,
		Prob:   0.3,
		Lag:    30 * time.Second,
		Jitter: 20 * time.Second,
	}}
	cfg.Hotspots = []logs.Hotspot{{Component: topology.CabinetAt(0, 2), Type: model.MCE, Multiplier: 50}}
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(90 * time.Minute),
		Duration:     4 * time.Minute,
		NodeFraction: 0.6,
		EventsPerSec: 40,
		// One unresponsive OST: every client reports the same target,
		// server peer, operation, and errno.
		Attrs: map[string]string{
			"ost": "OST0012", "op": "ost_read", "errno": "-110",
			"peer": "10.36.226.77@o2ib",
		},
	}}
	cfg.Jobs.MaxNodes = 64
	corpus := logs.Generate(cfg)

	db := openShared(t, store.Config{Nodes: 8, RF: 2, VNodes: 32, FlushThreshold: 2048})
	if err := ingest.Bootstrap(db, cfg.Nodes); err != nil {
		t.Fatal(err)
	}
	loader := ingest.NewLoader(db)
	if err := loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	if err := loader.LoadRuns(corpus.Runs); err != nil {
		t.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	shared = &fixture{cfg: cfg, corpus: corpus, db: db, eng: eng}
	return shared
}

func (f *fixture) window() (time.Time, time.Time) {
	return f.cfg.Start, f.cfg.Start.Add(f.cfg.Duration)
}

// wordCounts reads the word count off TextFold over typ.
func wordCounts(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, cfg ScanConfig) (map[string]int, error) {
	v, err := TextFold.Scan(eng, db, typ, from, to, cfg)
	if err != nil {
		return nil, err
	}
	return v.WordCounts(), nil
}

// tfidf reads the k best TF-IDF terms off TextFold over typ.
func tfidf(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time, k int, cfg ScanConfig) ([]TermScore, error) {
	v, err := TextFold.Scan(eng, db, typ, from, to, cfg)
	if err != nil {
		return nil, err
	}
	return v.TopTerms(k), nil
}

func TestHeatmapFindsHotspot(t *testing.T) {
	// E5: the MCE heat map must be dominated by the injected hot cabinet.
	f := getFixture(t)
	from, to := f.window()
	counts, err := HeatmapFold.Scan(f.eng, f.db, model.MCE, from, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hm := NewHeatMap(model.MCE, from, to, counts)
	if hm.Total == 0 {
		t.Fatal("heat map empty")
	}
	hotRow, hotCol := 0, 2
	if hm.Counts[hotRow][hotCol] != hm.Max {
		t.Fatalf("hot cabinet count %d is not the max %d", hm.Counts[hotRow][hotCol], hm.Max)
	}
}

func TestHeatmapMatchesGroundTruth(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	counts, err := HeatmapFold.Scan(f.eng, f.db, model.MemECC, from, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hm := NewHeatMap(model.MemECC, from, to, counts)
	truth := map[int]int{}
	seen := map[string]bool{}
	for _, e := range f.corpus.Events {
		if e.Type != model.MemECC {
			continue
		}
		// Collapse duplicates exactly like the store's LWW does.
		key := e.Time.String() + e.Source
		if seen[key] {
			continue
		}
		seen[key] = true
		loc, _ := topology.ParseCName(e.Source)
		truth[loc.Cabinet()] += e.Count
	}
	for cab, want := range truth {
		r, c := cab/topology.Cols, cab%topology.Cols
		if hm.Counts[r][c] != want {
			t.Fatalf("cabinet %d count = %d, ground truth %d", cab, hm.Counts[r][c], want)
		}
	}
}

func TestDistributionLevels(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	distribution := func(level topology.Level) []Bucket {
		acc, err := DistributionFold(level).Scan(f.eng, f.db, model.MCE, from, to, ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return acc.Buckets()
	}
	cabs := distribution(topology.LevelCabinet)
	if len(cabs) == 0 {
		t.Fatal("no cabinet distribution")
	}
	if cabs[0].Label != "c2-0" {
		t.Fatalf("top cabinet = %s, want hotspot c2-0", cabs[0].Label)
	}
	for i := 1; i < len(cabs); i++ {
		if cabs[i].Count > cabs[i-1].Count {
			t.Fatal("distribution not sorted descending")
		}
	}
	nodes, blades := distribution(topology.LevelNode), distribution(topology.LevelBlade)
	if len(nodes) < len(blades) || len(blades) < len(cabs) {
		t.Fatalf("granularity ordering violated: %d nodes, %d blades, %d cabinets",
			len(nodes), len(blades), len(cabs))
	}
	// Totals agree across granularities.
	sum := func(bs []Bucket) int {
		s := 0
		for _, b := range bs {
			s += b.Count
		}
		return s
	}
	if sum(nodes) != sum(cabs) || sum(blades) != sum(cabs) {
		t.Fatalf("totals differ: nodes %d, blades %d, cabinets %d", sum(nodes), sum(blades), sum(cabs))
	}
}

// appDistribution is the per-application distribution of typ over the
// fixture's window.
func appDistribution(t *testing.T, f *fixture, typ model.EventType) []Bucket {
	t.Helper()
	from, to := f.window()
	runs, err := RunsIn(f.db, from, to, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := AppDistributionFold(runs).Scan(f.eng, f.db, typ, from, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return acc.Buckets()
}

func TestDistributionByApp(t *testing.T) {
	f := getFixture(t)
	buckets := appDistribution(t, f, model.Lustre)
	if len(buckets) == 0 {
		t.Fatal("no app distribution")
	}
	apps := map[string]bool{}
	for _, b := range buckets {
		apps[b.Label] = true
	}
	// With a system-wide storm and jobs covering much of the machine, at
	// least one real application must be afflicted.
	realApp := false
	for a := range apps {
		if a != "(idle)" {
			realApp = true
		}
	}
	if !realApp {
		t.Fatalf("storm hit no applications: %v", buckets)
	}
}

func TestPlacementAndEventSites(t *testing.T) {
	f := getFixture(t)
	// Pick an instant with at least one running job.
	at := f.corpus.Runs[0].Start.Add(time.Second)
	placement, err := Placement(f.db, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(placement) == 0 {
		t.Fatal("no placements at a time with a running job")
	}
	for n, app := range placement {
		if _, err := topology.ParseCName(n); err != nil {
			t.Fatalf("placement key %q: %v", n, err)
		}
		if app == "" {
			t.Fatal("empty app name in placement")
		}
	}
	// Event sites at the storm peak.
	stormAt := f.cfg.Storms[0].Start.Add(f.cfg.Storms[0].Duration / 2).Truncate(time.Second)
	// Find a second that actually has a Lustre event.
	var found time.Time
	for _, e := range f.corpus.Events {
		if e.Type == model.Lustre && !e.Time.Before(stormAt) {
			found = e.Time
			break
		}
	}
	if found.IsZero() {
		t.Fatal("no lustre event after storm midpoint")
	}
	sites, err := SitesFold.Scan(f.eng, f.db, model.Lustre, found, found.Add(time.Second), ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) == 0 {
		t.Fatalf("no event sites at %v", found)
	}
}

func TestHistogramShowsStorm(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	hist, err := histogram(f.eng, f.db, model.Lustre, from, to, time.Minute, ScanConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 180 {
		t.Fatalf("histogram has %d bins, want 180", len(hist))
	}
	stormBin := int(f.cfg.Storms[0].Start.Sub(from) / time.Minute)
	peak, peakBin := 0, -1
	for i, c := range hist {
		if c > peak {
			peak, peakBin = c, i
		}
	}
	if peakBin < stormBin || peakBin >= stormBin+4 {
		t.Fatalf("histogram peak at bin %d, storm at bins [%d,%d)", peakBin, stormBin, stormBin+4)
	}
	if _, err := HistogramFold(from, to, 0); err == nil {
		t.Fatal("zero bin accepted")
	}
	if _, err := HistogramFold(from, from, time.Minute); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestTransferEntropyDetectsInjectedCausality(t *testing.T) {
	// E7: the generator injects Lustre → AppAbort with a 30-50 s lag;
	// transfer entropy must be asymmetric in that direction.
	f := getFixture(t)
	from, to := f.window()
	res, err := transferEntropy(f.eng, f.db, model.Lustre, model.AppAbort, from, to, 30*time.Second, ScanConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.XToY <= 0 {
		t.Fatalf("TE(Lustre→Abort) = %v, want > 0", res.XToY)
	}
	if res.Direction(0) != "x->y" {
		t.Fatalf("TE direction = %q (x->y=%v, y->x=%v), want x->y",
			res.Direction(0), res.XToY, res.YToX)
	}
}

func TestTransferEntropyIndependentSeriesNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5000
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
		y[i] = rng.Intn(2)
	}
	te, err := TransferEntropy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if te > 0.01 {
		t.Fatalf("TE of independent series = %v, want ≈0", te)
	}
}

func TestTransferEntropyDetectsSyntheticCoupling(t *testing.T) {
	// y copies x with one step of delay: TE(x→y) should approach H(x)=1
	// bit and dominate the reverse direction.
	rng := rand.New(rand.NewSource(4))
	n := 5000
	x, y := make([]int, n), make([]int, n)
	for i := range x {
		x[i] = rng.Intn(2)
		if i > 0 {
			y[i] = x[i-1]
		}
	}
	xy, err := TransferEntropy(x, y)
	if err != nil {
		t.Fatal(err)
	}
	yx, err := TransferEntropy(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if xy < 0.9 {
		t.Fatalf("TE(x→y) = %v, want ≈1 bit", xy)
	}
	if yx > 0.1 {
		t.Fatalf("TE(y→x) = %v, want ≈0", yx)
	}
	if (TEResult{XToY: xy, YToX: yx}).Direction(0.1) != "x->y" {
		t.Fatal("direction not detected")
	}
}

func TestTransferEntropyErrors(t *testing.T) {
	if _, err := TransferEntropy([]int{1}, []int{1, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TransferEntropy([]int{1}, []int{0}); err == nil {
		t.Error("too-short series accepted")
	}
}

func TestWordCountLocatesOST(t *testing.T) {
	// E8: word count over the Lustre storm window surfaces the culprit
	// OST as a dominant token.
	f := getFixture(t)
	storm := f.cfg.Storms[0]
	counts, err := wordCounts(f.eng, f.db, model.Lustre, storm.Start, storm.Start.Add(storm.Duration), ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if counts["ost0012"] == 0 {
		t.Fatal("culprit OST token absent from word counts")
	}
	// ost0012 must dominate every other OST id (the word-bubble signal:
	// "an object storage target is not responding").
	ostID := regexp.MustCompile(`^ost[0-9a-f]{4}$`)
	for w, c := range counts {
		if ostID.MatchString(w) && w != "ost0012" && c >= counts["ost0012"]/10 {
			t.Fatalf("token %s (%d) rivals culprit ost0012 (%d)", w, c, counts["ost0012"])
		}
	}
}

func TestTFIDFRanksCulpritHigh(t *testing.T) {
	f := getFixture(t)
	storm := f.cfg.Storms[0]
	top, err := tfidf(f.eng, f.db, model.Lustre, storm.Start, storm.Start.Add(storm.Duration), 10, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no TF-IDF scores")
	}
	found := false
	for _, ts := range top {
		if ts.Term == "ost0012" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ost0012 not in top-10 TF-IDF terms: %v", top)
	}
}

// TestTFIDFTopKIsSortedPrefix: the k-heap selection of TopTerms returns
// exactly the first k terms of the fully sorted vocabulary, for k around
// the edges, on three vocabularies — Lustre's storm words, MCE's unique
// status words (far more than 50), MemECC's handful.
func TestTFIDFTopKIsSortedPrefix(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	wide := compute.NewEngine(compute.Config{Parallelism: 3})
	for _, typ := range []model.EventType{model.Lustre, model.MCE, model.MemECC} {
		full, err := tfidf(f.eng, f.db, typ, from, to, 0, ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(full)
		if n < 4 || typ == model.MCE && n <= 50 {
			t.Fatalf("%s: a vocabulary of %d terms is too small to cut", typ, n)
		}
		for i := 1; i < n; i++ {
			if a, b := full[i-1], full[i]; a.Score < b.Score || a.Score == b.Score && a.Term >= b.Term {
				t.Fatalf("%s: %v before %v", typ, a, b)
			}
		}
		for _, k := range []int{1, 2, 50, n - 1, n, n + 3} {
			top, err := tfidf(wide, f.db, typ, from, to, k, ScanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if want := full[:min(k, n)]; !slices.Equal(top, want) {
				t.Fatalf("%s, k = %d: %d terms that are not the first %d of the full sort", typ, k, len(top), len(want))
			}
		}
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("LustreError: 11-0: atlas2-OST0012-osc failed with -110")
	want := map[string]bool{"lustreerror": true, "ost0012": true, "110": true, "atlas2": true}
	got := map[string]bool{}
	for _, tk := range toks {
		got[tk] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("token %q missing from %v", w, toks)
		}
	}
	if got["failed"] || got["with"] || got["a"] {
		t.Errorf("stopwords not removed: %v", toks)
	}
	if len(Tokenize("")) != 0 {
		t.Error("empty text should yield no tokens")
	}
}

// TestTextFoldsMatchTokenize holds the streaming text folds — which learn
// each spelling once instead of tokenizing every occurrence — to the
// Tokenize reference on messages that mix case, stopwords in capitals,
// single characters, digits and non-ASCII letters, split over several scan
// tasks.
func TestTextFoldsMatchTokenize(t *testing.T) {
	docs := []string{
		"LustreError: 11-0: atlas2-OST0012-osc failed with -110",
		"The ERROR was On ost0012; THE operation Failed",
		"Machine Check Exception: bank 4 status corrected",
		"machine check exception: Bank 4 STATUS Corrected x y Z",
		"ÉCHEC du nœud Ünit-7 — échec Du NŒUD ünit",
		"a b c 1 22 333 A B C",
		"",
		"ost0012 OST0012 Ost0012 oST0012",
	}
	db := openStore(t, store.Config{Nodes: 2, RF: 1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1503468000, 0).UTC()
	for i := 0; i < 5*len(docs); i++ {
		e := model.Event{Time: start.Add(time.Duration(i) * 10 * time.Minute), Type: model.Lustre,
			Source: "c0-0c0s0n0", Count: 1, Raw: docs[i%len(docs)]}
		if err := db.Put(model.TableEventByTime, model.EventByTimeKey(e.Hour(), e.Type), model.EventToTimeRow(e), store.One); err != nil {
			t.Fatal(err)
		}
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Parallelism: 3})
	to := start.Add(time.Duration(5*len(docs)) * 10 * time.Minute)

	tf, df, nDocs := map[string]int{}, map[string]int{}, 0
	for i := 0; i < 5*len(docs); i++ {
		doc := docs[i%len(docs)]
		if doc == "" {
			continue
		}
		nDocs++
		seen := map[string]bool{}
		for _, tok := range Tokenize(doc) {
			tf[tok]++
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	counts, err := wordCounts(eng, db, model.Lustre, start, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, tf) {
		t.Fatalf("word count = %v, Tokenize reference = %v", counts, tf)
	}
	scores, err := tfidf(eng, db, model.Lustre, start, to, 0, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(tf) {
		t.Fatalf("TF-IDF scores %d terms, reference has %d", len(scores), len(tf))
	}
	for _, sc := range scores {
		want := float64(tf[sc.Term]) * math.Log(float64(1+nDocs)/float64(1+df[sc.Term]))
		if sc.Score != want {
			t.Errorf("term %q scores %v, reference %v (tf %d df %d)", sc.Term, sc.Score, want, tf[sc.Term], df[sc.Term])
		}
	}
}

// TestHistogramBadAmountNamesRow checks that a fold over an invalid amount
// fails naming that row's key, whether the amount reaches it as a plain
// vector (memtable) or through a block's dictionary (after a flush to v5,
// with keys left front-coded until the error asks for one).
func TestHistogramBadAmountNamesRow(t *testing.T) {
	db, err := store.OpenDurable(store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1, Dir: t.TempDir(), WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1503468000, 0).UTC()
	var badKey string
	for i := 0; i < 100; i++ {
		e := model.Event{Time: start.Add(time.Duration(i) * time.Second), Type: model.MCE, Source: "c0-0c0s0n0", Count: 1}
		row := model.EventToTimeRow(e)
		if i == 70 {
			row = store.MapRow(row.Key, 0, map[string]string{model.ColSource: e.Source, model.ColAmount: "0"})
			badKey = row.Key
		}
		if err := db.Put(model.TableEventByTime, model.EventByTimeKey(e.Hour(), e.Type), row, store.One); err != nil {
			t.Fatal(err)
		}
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs()})
	want := `model: bad amount "0" in row "` + badKey + `"`
	for _, stage := range []string{"memtable", "flushed"} {
		if stage == "flushed" {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		_, err := histogram(eng, db, model.MCE, start, start.Add(time.Hour), time.Minute, ScanConfig{}, false)
		if err == nil || err.Error() != want {
			t.Errorf("%s: histogram error %v, want %s", stage, err, want)
		}
	}
}

func TestTFIDFEmptyCorpus(t *testing.T) {
	// A window after the corpus holds no messages: no documents, no scores.
	f := getFixture(t)
	_, to := f.window()
	scores, err := tfidf(f.eng, f.db, model.Lustre, to.Add(48*time.Hour), to.Add(49*time.Hour), 0, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if scores != nil {
		t.Fatalf("scores on empty corpus: %v", scores)
	}
}

func TestRunsInWindowFiltering(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	runs, err := RunsIn(f.db, from, to, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("no runs found")
	}
	for _, r := range runs {
		if !r.Start.Before(to) || !r.End.After(from) {
			t.Fatalf("run %s [%v,%v) outside window", r.JobID, r.Start, r.End)
		}
	}
	// A window after the corpus has no runs.
	later, err := RunsIn(f.db, to.Add(48*time.Hour), to.Add(49*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(later) != 0 {
		t.Fatalf("found %d runs in empty window", len(later))
	}
}

func TestEventsBySourceMatchesByType(t *testing.T) {
	// The dual tables must agree: for one source, the union over types of
	// by-type events filtered to the source equals the by-source query.
	f := getFixture(t)
	from, to := f.window()
	source := ""
	for _, e := range f.corpus.Events {
		if e.Type == model.MCE {
			source = e.Source
			break
		}
	}
	if source == "" {
		t.Skip("no MCE events")
	}
	bySource, err := EventsBySourceScan(f.eng, f.db, source, from, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byType, err := EventsAllTypesScan(f.eng, f.db, from, to, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nFiltered := 0
	for _, e := range byType {
		if e.Source == source {
			nFiltered++
		}
	}
	if len(bySource) != nFiltered {
		t.Fatalf("event_by_location gives %d events, event_by_time filter gives %d",
			len(bySource), nFiltered)
	}
	for _, e := range bySource {
		if e.Source != source {
			t.Fatalf("by-source query returned foreign source %s", e.Source)
		}
		if e.Type == "" {
			t.Fatal("by-source event lost its type")
		}
	}
}

// TestDistributionByAppAttributesAborts: the APP_ABORT distribution by
// application credits each abort to the run that held its node at that
// second, or to "(idle)", exactly as the corpus's runs say.
func TestDistributionByAppAttributesAborts(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	buckets := appDistribution(t, f, model.AppAbort)
	got := map[string]int{}
	for _, b := range buckets {
		got[b.Label] = b.Count
	}
	want := map[string]int{}
	seen := map[string]bool{}
	for _, e := range f.corpus.Events {
		// Collapse duplicates exactly like the store's LWW does.
		key := e.Time.String() + e.Source
		if e.Type != model.AppAbort || seen[key] || e.Time.Before(from) || !e.Time.Before(to) {
			continue
		}
		seen[key] = true
		app := "(idle)"
		for _, r := range f.corpus.Runs {
			if !e.Time.Before(r.Start) && e.Time.Before(r.End) && slices.Contains(r.Nodes, e.Source) {
				app = r.App
				break
			}
		}
		want[app] += e.Count
	}
	if len(want) < 2 {
		t.Fatalf("aborts fall on %v only; the check needs running applications", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aborts by application = %v, the corpus's runs say %v", got, want)
	}
}

// TestRunsInReportsFailedRuns: every run of the window reads back with
// its exit status, so the failed-run share is the corpus's.
func TestRunsInReportsFailedRuns(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	runs, err := RunsIn(f.db, from, to, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, r := range f.corpus.Runs {
		want[r.JobID] = r.ExitOK
	}
	if len(runs) != len(want) {
		t.Fatalf("%d runs read back of %d", len(runs), len(want))
	}
	failed := 0
	for _, r := range runs {
		ok, found := want[r.JobID]
		if !found || ok != r.ExitOK {
			t.Fatalf("run %s: exit ok %v, corpus has %v (found %v)", r.JobID, r.ExitOK, ok, found)
		}
		if !r.ExitOK {
			failed++
		}
	}
	if failed == 0 || failed == len(runs) {
		t.Fatalf("%d of %d runs failed; want a share strictly between 0 and 1", failed, len(runs))
	}
}
