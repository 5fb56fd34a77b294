package analytics

import (
	"strconv"
	"testing"
	"time"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

// BenchmarkTextFolds times the two shapes of a text fold over one flushed
// hour of 4 096 rows, as one task: TF-IDF over MCE messages, each with a
// one-off hex status tokenised from its cell, and word count over Lustre
// messages whose holes a section dictionary codes, counted by code tuple.
func BenchmarkTextFolds(b *testing.B) {
	db := openStore(b, store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		b.Fatal(err)
	}
	eng := compute.NewEngine(compute.Config{Workers: db.NodeIDs(), Parallelism: 1})
	from := time.Unix(1503468000, 0).UTC()
	putTextRows(b, db, from, 4096)
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	cfg := ScanConfig{Slice: time.Hour}
	b.Run("tfidf-oneoff", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := TFIDFScan(eng, db, model.MCE, from, from.Add(time.Hour), 10, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wordcount-dict", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := WordCountScan(eng, db, model.Lustre, from, from.Add(time.Hour), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// putTextRows writes n MCE rows from start on, each with a one-off hex
// status in its text, and n Lustre rows whose text fills a template's holes
// from a few values each.
func putTextRows(t testing.TB, db *store.DB, start time.Time, n int) {
	t.Helper()
	mce, lustre := make([]store.Row, n), make([]store.Row, n)
	for i := range n {
		at := start.Add(time.Duration(i) * time.Hour / time.Duration(n))
		source := topology.LocationOf(topology.NodeID(i % 512)).CName()
		status := strconv.FormatUint(uint64(i+n)*0x9e3779b97f4a7c15, 16)
		mce[i] = model.EventToTimeRow(model.Event{
			Time: at, Type: model.MCE, Count: 1, Source: source,
			Raw:   "Machine Check Exception: bank 4 status " + status,
			Attrs: map[string]string{"bank": "4", "status": status},
		})
		ost, client := "OST"+strconv.Itoa(i%16), "nid"+strconv.Itoa(100+i%7)
		lustre[i] = model.EventToTimeRow(model.Event{
			Time: at, Type: model.Lustre, Count: 1, Source: source,
			Raw:   "LustreError: atlas2-" + ost + " evicting client " + client + " after timeout",
			Attrs: map[string]string{"ost": ost, "client": client},
		})
	}
	for typ, rows := range map[model.EventType][]store.Row{model.MCE: mce, model.Lustre: lustre} {
		if err := db.PutBatch(model.TableEventByTime, model.EventByTimeKey(start.Unix()/3600, typ), rows, store.All); err != nil {
			t.Fatal(err)
		}
	}
}
