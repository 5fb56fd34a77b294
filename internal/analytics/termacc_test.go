package analytics

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hpclog/internal/model"
	"hpclog/internal/store"
)

// FuzzTermAccMatchesMap holds the vocabulary of the text folds to a plain
// map built with Tokenize. The text is split into tasks at '|' and each
// task into documents at '\n'; every task folds into an accumulator with
// the smallest table (so the table grows and probes wrap around), and the
// tasks merge in a fuzzed order. Each term's tf and df, the document
// count, wordCounts and topTerms must equal the reference's, every run of
// the text must look up its own token, and all of it again after the
// merged accumulator is reset and reused.
func FuzzTermAccMatchesMap(f *testing.F) {
	var hex strings.Builder
	for i := range 300 {
		fmt.Fprintf(&hex, "status %x|", uint64(i)*0x9e3779b97f4a7c15)
	}
	for _, text := range append(slices.Clone(tokenizerCases),
		"LustreError: 11-0: atlas2-OST0012-osc failed with -110\nThe ERROR was On ost0012|THE operation Failed\n\nost0012 OST0012 Ost0012",
		"a b c 1 22 333 A B C|x|y Z|ÉCHEC du nœud Ünit-7\n— échec Du NŒUD ünit|İstanbul ß ẞ Σσς ﬁ",
		hex.String()) {
		f.Add(text, uint64(len(text)), uint8(10))
	}
	f.Fuzz(func(t *testing.T, text string, order uint64, k uint8) {
		tasks := strings.Split(text, "|")
		fold := func(a *Vocabulary, task string) {
			for _, doc := range strings.Split(task, "\n") {
				a.doc(doc)
			}
		}
		accs := make([]*Vocabulary, len(tasks))
		for i, task := range tasks {
			accs[i] = vocabularies.New().(*Vocabulary)
			fold(accs[i], task)
		}
		rand.New(rand.NewPCG(order, 0)).Shuffle(len(accs), func(i, j int) { accs[i], accs[j] = accs[j], accs[i] })
		acc := vocabularies.New().(*Vocabulary)
		for _, b := range accs {
			acc = acc.merge(b)
		}
		checkTermAcc(t, acc, text, int(k))

		acc.reset()
		for _, task := range tasks {
			fold(acc, task)
		}
		checkTermAcc(t, acc, text, int(k))
		acc.release()
	})
}

// checkTermAcc compares a, the fold of every document of text, with a
// map reference built with Tokenize.
func checkTermAcc(t *testing.T, a *Vocabulary, text string, k int) {
	t.Helper()
	tf, df, docs := map[string]int{}, map[string]int{}, 0
	for _, task := range strings.Split(text, "|") {
		for _, doc := range strings.Split(task, "\n") {
			if doc == "" {
				continue
			}
			docs++
			seen := map[string]bool{}
			for _, tok := range Tokenize(doc) {
				tf[tok]++
				if !seen[tok] {
					seen[tok] = true
					df[tok]++
				}
			}
		}
	}
	if a.docs != docs || len(a.terms) != len(tf) {
		t.Fatalf("%d documents and %d terms, the reference %d and %d", a.docs, len(a.terms), docs, len(tf))
	}
	for p, e := range a.terms {
		term, st := string(a.key(e)), a.stats[p]
		if st.tf != tf[term] || st.df != df[term] {
			t.Fatalf("term %q: tf %d df %d, the reference tf %d df %d", term, st.tf, st.df, tf[term], df[term])
		}
	}
	for e := range int32(len(a.val)) {
		if got, _ := find(a, a.key(e), a.hash[e]); got != e {
			t.Fatalf("entry %d (%q) is found as %d", e, a.key(e), got)
		}
	}
	if got := a.wordCounts(); !reflect.DeepEqual(got, tf) {
		t.Fatalf("wordCounts = %v, the reference %v", got, tf)
	}
	var want []TermScore
	if docs > 0 {
		want = []TermScore{}
		for term, n := range tf {
			want = append(want, TermScore{term, float64(n) * math.Log(float64(1+docs)/float64(1+df[term]))})
		}
		slices.SortFunc(want, func(x, y TermScore) int {
			return cmp.Or(cmp.Compare(y.Score, x.Score), strings.Compare(x.Term, y.Term))
		})
		if k > 0 && k < len(want) {
			want = want[:k]
		}
	}
	if got := a.topTerms(k); !slices.Equal(got, want) {
		t.Fatalf("topTerms(%d) = %v, the reference %v", k, got, want)
	}
	eachRun(text, func(run string, clean bool) {
		p := a.positionOf(run, clean)
		if tok := tokenOf(run, clean); tok == "" && p != -1 || tok != "" && (p < 0 || string(a.term(p)) != tok) {
			t.Fatalf("run %q: position %d, want the term %q", run, p, tok)
		}
	})
	if len(a.terms) != len(tf) {
		t.Fatalf("looking up the text's runs added terms: %d, the reference %d", len(a.terms), len(tf))
	}
}

// TestFoldDocsOneViewPerHoleColumn: where two templates of a batch name one
// hole column, the fold resolves the column once — one view per column ID
// per batch — and counts what it counts from the reassembled messages.
func TestFoldDocsOneViewPerHoleColumn(t *testing.T) {
	db := openStore(t, store.Config{Nodes: 1, RF: 1, FlushThreshold: 1 << 20, CompactInterval: -1})
	if err := db.CreateTable(model.TableEventByTime); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1503468000, 0).UTC()
	rows := make([]store.Row, 64)
	for i := range rows {
		ost := fmt.Sprintf("OST%04x", i%5)
		raw := "evict " + ost + " now"
		if i%2 == 1 {
			raw = "mount " + ost + " read only"
		}
		rows[i] = model.EventToTimeRow(model.Event{Time: start.Add(time.Duration(i) * time.Second), Type: model.Lustre,
			Source: "c0-0c0s0n0", Count: 1, Raw: raw, Attrs: map[string]string{"ost": ost}})
	}
	pkey := model.EventByTimeKey(start.Unix()/3600, model.Lustre)
	if err := db.PutBatch(model.TableEventByTime, pkey, rows, store.All); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fold := func(templates bool) *Vocabulary {
		defer SetTemplateFolds(templates)()
		a := newVocabulary()
		err := db.ScanPartitionBatches(context.Background(), model.TableEventByTime, pkey, store.Range{}, store.One, projRaw, nil, nil,
			func(b *store.Batch) error {
				if _, err := a.foldDocs(b); err != nil || !templates {
					return err
				}
				if len(a.bt) != 2 || len(a.views) != 1 {
					t.Errorf("a batch of two templates naming one hole column: %d templates, %d views; want 2 and 1", len(a.bt), len(a.views))
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	got, want := fold(true), fold(false)
	defer got.release()
	defer want.release()
	if !reflect.DeepEqual(got.wordCounts(), want.wordCounts()) || !slices.Equal(got.topTerms(0), want.topTerms(0)) {
		t.Errorf("through templates: %v\n%v\nfrom the messages: %v\n%v", got.wordCounts(), got.topTerms(0), want.wordCounts(), want.topTerms(0))
	}
}
