package analytics_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/enginetest"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// hostileType is the event type of the rows that break templates.
const hostileType = model.EventType("TMPL_HOSTILE")

// putHostile writes, an hour into the corpus window, event rows whose raw
// text breaks templates: a sibling value twice, or inside constant text,
// or equal to the whole text; holes next to letters and next to each
// other; no text; a hole column some rows lack; an explicit empty sibling;
// non-ASCII text; the amount in the text; stopwords and mixed case.
func putHostile(t *testing.T, h *enginetest.Harness) {
	t.Helper()
	start := h.Cfg.Start.Add(time.Hour).Truncate(time.Hour)
	var rows []store.Row
	for i := 0; i < 700; i++ {
		n, ost := fmt.Sprint(i%4), fmt.Sprintf("OST%04x", i%5)
		e := model.Event{Time: start.Add(time.Duration(i) * time.Second), Type: hostileType,
			Source: fmt.Sprintf("c%d-0c0s%dn%d", i%3, i%8, i%4), Count: 1 + i%3}
		switch i % 14 {
		case 0:
			e.Raw, e.Attrs = "Bank "+n+": "+n+" errors on Bank "+n, map[string]string{"bank": n}
		case 1:
			e.Raw, e.Attrs = "Bank an: an", map[string]string{"word": "an"}
		case 2:
			e.Raw, e.Attrs = ost, map[string]string{"ost": ost}
		case 3:
			e.Attrs = map[string]string{"ost": ost}
		case 4:
			e.Raw, e.Attrs = "error at DIMM"+n+" (node)", map[string]string{"dimm": n}
		case 5:
			e.Raw, e.Attrs = "atlas2-"+ost+"-osc", map[string]string{"ostA": ost[:3], "ostB": ost[3:]}
		case 6, 7:
			e.Raw = "node c" + n + " down, node C" + n + " up"
			if i%14 == 6 {
				e.Attrs = map[string]string{"node": "c" + n}
			}
		case 8:
			e.Raw, e.Attrs = "ÉCHEC du nœud Ünit-"+n+" — échec "+ost, map[string]string{"unit": "Ünit-" + n, "ost": ost}
		case 9:
			e.Raw = fmt.Sprintf("count %d seen %d", e.Count, e.Count)
		case 10:
			e.Raw, e.Attrs = "x= y "+ost, map[string]string{"x": "", "ost": ost}
		case 11:
			e.Raw, e.Attrs = "The Error at the node "+ost+" is "+ost, map[string]string{"ost": ost}
		case 12:
			e.Raw, e.Attrs = "ab"+n+"cd"+n+"ef", map[string]string{"bank": n, "ost": "cd"}
		case 13:
			e.Raw, e.Attrs = "Machine Check Exception: CORRECTED Bank "+n+": 0x"+ost, map[string]string{"bank": n, "status": "0x" + ost}
		}
		rows = append(rows, model.EventToTimeRow(e))
	}
	if err := h.DB.PutBatch(model.TableEventByTime, model.EventByTimeKey(start.Unix()/3600, hostileType), rows, store.All); err != nil {
		t.Fatal(err)
	}
}

// templatedBatches counts the batches of raw text over typ's window that
// come in template form.
func templatedBatches(t *testing.T, h *enginetest.Harness, typ model.EventType) int {
	t.Helper()
	from, to := h.Window()
	n := 0
	for _, hour := range model.HoursIn(from, to) {
		err := h.DB.ScanPartitionBatches(context.Background(), model.TableEventByTime, model.EventByTimeKey(hour, typ),
			store.Range{}, []uint32{model.ColRawID}, nil, nil, func(b *store.Batch) error {
				if codes, _, _ := b.Template(model.ColRawID); codes != nil {
					n++
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestTextFoldsTemplatesMatchStrings holds the text folds' template path —
// a template's constants tokenised once per section, a hole value once per
// dictionary entry — to the same folds over the reassembled messages: word
// count and TF-IDF, on every event type of the engine corpus and on rows
// that break templates, compacted into v6 sections, resident and tiered.
func TestTextFoldsTemplatesMatchStrings(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		name := "resident"
		if tiered {
			name = "tiered"
		}
		t.Run(name, func(t *testing.T) {
			h := enginetest.NewDurable(t)
			if tiered {
				h = enginetest.NewTiered(t)
			}
			putHostile(t, h)
			if err := h.DB.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.DB.Compact(); err != nil {
				t.Fatal(err)
			}
			if tiered {
				if _, _, err := h.DB.TierSweep(true); err != nil {
					t.Fatal(err)
				}
			}
			from, to := h.Window()
			for _, typ := range append(slices.Clone(model.EventTypes), hostileType) {
				fold := func(templates bool) (map[string]int, []analytics.TermScore) {
					defer analytics.SetTemplateFolds(templates)()
					wc, err := analytics.WordCountScan(h.Comp, h.DB, typ, from, to, analytics.ScanConfig{})
					if err != nil {
						t.Fatal(err)
					}
					tfidf, err := analytics.TFIDFScan(h.Comp, h.DB, typ, from, to, 0, analytics.ScanConfig{})
					if err != nil {
						t.Fatal(err)
					}
					return wc, tfidf
				}
				wc, tfidf := fold(true)
				wantWC, wantTFIDF := fold(false)
				if !reflect.DeepEqual(wc, wantWC) {
					t.Errorf("%s: word count through templates differs:\n%v\nfrom the messages':\n%v", typ, wc, wantWC)
				}
				if !reflect.DeepEqual(tfidf, wantTFIDF) {
					t.Errorf("%s: TF-IDF through templates differs:\n%v\nfrom the messages':\n%v", typ, tfidf, wantTFIDF)
				}
			}
			for _, typ := range []model.EventType{model.MCE, model.Lustre, hostileType} {
				if templatedBatches(t, h, typ) == 0 {
					t.Errorf("no %s batch came in template form", typ)
				}
			}
		})
	}
}
