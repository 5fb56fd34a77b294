package analytics_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// non-ASCII text; the amount in the text; stopwords and mixed case. And
// rows the count by code tuple must get right: a hole token equal to a
// constant term of its own template (its df counts once per row); a bare
// template beside rows whose hole is empty, which have no text (a writer
// never templates an empty cell); one hole column named by several
// templates of a block; templates of seven and eight holes, as many as a
// tuple key packs and one more; and, in the first eight rows of every
// 64-row block, a hole with values new to the block, which the block codes
// into a dictionary of its own rather than the section's.
func putHostile(t *testing.T, h *enginetest.Harness) {
	t.Helper()
	start := h.Cfg.Start.Add(time.Hour).Truncate(time.Hour)
	var rows []store.Row
	for i := 0; i < 700; i++ {
		n, ost := fmt.Sprint(i%4), fmt.Sprintf("OST%04x", i%5)
		e := model.Event{Time: start.Add(time.Duration(i) * time.Second), Type: hostileType,
			Source: fmt.Sprintf("c%d-0c0s%dn%d", i%3, i%8, i%4), Count: 1 + i%3}
		if i%64 < 8 {
			job := fmt.Sprintf("job-%02d-%d", i/64, i%4)
			e.Raw, e.Attrs = "Job "+job+" done", map[string]string{"job": job}
			rows = append(rows, model.EventToTimeRow(e))
			continue
		}
		switch i % 18 {
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
			if i%18 == 6 {
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
		case 14:
			state := []string{"up", "down"}[i/18%2]
			e.Raw, e.Attrs = "link "+state+" state "+state, map[string]string{"state": state}
		case 15:
			tag := []string{"alpha", "", "Beta"}[i/18%3]
			e.Raw, e.Attrs = tag, map[string]string{"tag": tag}
		case 16:
			e.Raw, e.Attrs = "evict "+ost+" by bank "+n, map[string]string{"ost": ost, "bank": n}
		case 17:
			e.Attrs = map[string]string{}
			for k := range 7 + i/18%2 {
				v := fmt.Sprintf("%c%d", 'p'+k, i%3)
				e.Raw += fmt.Sprintf(" f%d=%s", k, v)
				e.Attrs[fmt.Sprint("f", k)] = v
			}
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

// TestHostileCorpusShapes holds putHostile to the shapes it claims, as the
// flushed and compacted store codes them: blocks that code the job hole
// into a dictionary of their own (a handful of entries, where a section's
// would hold every block's), templates of seven and of eight holes, a
// template whose hole value is also one of its constant terms, and, in most
// batches, the node hole whose value recurs, case changed, in its text.
func TestHostileCorpusShapes(t *testing.T) {
	h := enginetest.NewDurable(t)
	putHostile(t, h)
	if err := h.DB.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.DB.Compact(); err != nil {
		t.Fatal(err)
	}
	jobID, nodeID := store.InternColumn("attr.job"), store.InternColumn("attr.node")
	ownDict, nodeBatches, batches, holes := 0, 0, 0, map[int]int{}
	var sameTerm bool
	start := h.Cfg.Start.Add(time.Hour).Truncate(time.Hour)
	err := h.DB.ScanPartitionBatches(context.Background(), model.TableEventByTime, model.EventByTimeKey(start.Unix()/3600, hostileType),
		store.Range{}, []uint32{model.ColRawID}, nil, nil, func(b *store.Batch) error {
			codes, tmpls, _ := b.Template(model.ColRawID)
			batches++
			node := false
			for i, c := range codes {
				if c == 0 {
					continue
				}
				tm := tmpls[c-1]
				holes[len(tm.Holes)]++
				node = node || slices.Contains(tm.Holes, nodeID)
				for k, id := range tm.Holes {
					if v := b.Col(id)[i]; v != "" && (strings.Contains(tm.Consts[k], " "+v+" ") || strings.HasSuffix(tm.Consts[k+1], " "+v)) {
						sameTerm = true
					}
				}
			}
			if _, dict := b.Dict(jobID); dict != nil && len(dict) <= 5 {
				ownDict++
			}
			if node {
				nodeBatches++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if ownDict == 0 {
		t.Error("no block codes the job hole into a dictionary of its own")
	}
	if holes[7] == 0 || holes[8] == 0 {
		t.Errorf("rows by the hole count of their template: %v; want some of 7 and of 8", holes)
	}
	if nodeBatches*2 <= batches {
		t.Errorf("%d of %d batches hold a row whose node hole repeats inside its constants; want most", nodeBatches, batches)
	}
	if !sameTerm {
		t.Error("no template row fills a hole with one of its template's constant terms")
	}
}
