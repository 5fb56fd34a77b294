package analytics

import (
	"math"
	"sort"
	"strings"
	"time"
	"unicode"

	"hpclog/internal/compute"
	"hpclog/internal/model"
	"hpclog/internal/store"
)

// stopwords are tokens carrying no diagnostic signal in Cray/Lustre logs.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "on": true, "in": true,
	"to": true, "with": true, "by": true, "for": true, "and": true,
	"is": true, "at": true, "from": true, "this": true, "was": true,
	"error": true, "failed": true, "operation": true, // present in ~every line
}

// Tokenize splits raw log message text into analysis tokens: lowercased
// runs of letters/digits (so hexadecimal codes and component ids like
// ost0012 survive), minus stopwords and single characters. Tokens are
// fresh strings the caller owns outright — Dataset pipelines hold them in
// long-lived maps, so they must not alias the message text. The streaming
// folds work on eachRun directly and learn each spelling once (termAcc).
func Tokenize(text string) []string {
	var tokens []string
	eachRun(text, func(run string, clean bool) {
		if tok := tokenOf(run, clean); tok != "" {
			tokens = append(tokens, strings.Clone(tok))
		}
	})
	return tokens
}

// eachRun calls yield for every maximal run of letters and digits in text,
// in order — a substring of text, never a copy — and says whether the run
// is clean: already lowercase, the overwhelming case in log text.
func eachRun(text string, yield func(run string, clean bool)) {
	start, clean := -1, true // start: byte offset of the current run, -1 between runs
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, clean = i, true
			}
			if unicode.ToLower(r) != r {
				clean = false
			}
			continue
		}
		if start >= 0 {
			yield(text[start:i], clean)
			start = -1
		}
	}
	if start >= 0 {
		yield(text[start:], clean)
	}
}

// tokenOf turns a run into its analysis token: case-folded, or "" for a
// stopword or a single character. Only folding allocates.
func tokenOf(run string, clean bool) string {
	if !clean {
		run = strings.ToLower(run)
	}
	if len(run) < 2 || stopwords[run] {
		return ""
	}
	return run
}

// RawMessages builds a dataset of raw message texts of one event type
// within [from, to); each stored message is one document, as in the
// paper's treatment of Lustre messages.
func RawMessages(eng *compute.Engine, db *store.DB, typ model.EventType, from, to time.Time) *compute.Dataset[string] {
	events := EventsByType(eng, db, typ, from, to)
	withRaw := compute.Filter(events, func(e model.Event) bool { return e.Raw != "" })
	return compute.Map(withRaw, func(e model.Event) string { return e.Raw })
}

// WordCount runs the classic distributed word count over a document
// dataset — "a simple word counts, which is rapidly executed by Spark, can
// locate the source of the problem".
func WordCount(docs *compute.Dataset[string]) (map[string]int, error) {
	words := compute.FlatMap(docs, Tokenize)
	pairs := compute.Map(words, func(w string) compute.Pair[string, int] {
		return compute.Pair[string, int]{Key: w, Val: 1}
	})
	return compute.CollectMap(compute.ReduceByKey(pairs, 0, func(a, b int) int { return a + b }))
}

// TermScore is one term with its aggregate TF-IDF weight.
type TermScore struct {
	Term  string
	Score float64
}

// TFIDF computes aggregate TF-IDF weights over a document dataset. Each
// log message is a document; term frequency is summed across documents
// and weighted by inverse document frequency, so boilerplate shared by
// every message scores near zero while discriminating identifiers (an
// unresponsive OST, an error code) float to the top. Results are sorted
// by descending score.
func TFIDF(docs *compute.Dataset[string]) ([]TermScore, error) {
	// Per-partition: term frequencies plus document frequencies.
	stats := compute.MapPartitions(docs, func(in []string) ([]compute.Pair[string, [2]int], error) {
		tf := make(map[string]int)
		df := make(map[string]int)
		for _, doc := range in {
			seen := make(map[string]bool)
			for _, tok := range Tokenize(doc) {
				tf[tok]++
				if !seen[tok] {
					seen[tok] = true
					df[tok]++
				}
			}
		}
		out := make([]compute.Pair[string, [2]int], 0, len(tf))
		for term, f := range tf {
			out = append(out, compute.Pair[string, [2]int]{Key: term, Val: [2]int{f, df[term]}})
		}
		return out, nil
	})
	merged, err := compute.CollectMap(compute.ReduceByKey(stats, 0, func(a, b [2]int) [2]int {
		return [2]int{a[0] + b[0], a[1] + b[1]}
	}))
	if err != nil {
		return nil, err
	}
	nDocs, err := docs.Count()
	if err != nil {
		return nil, err
	}
	if nDocs == 0 {
		return nil, nil
	}
	out := make([]TermScore, 0, len(merged))
	for term, v := range merged {
		tf, df := v[0], v[1]
		idf := math.Log(float64(1+nDocs) / float64(1+df))
		out = append(out, TermScore{Term: term, Score: float64(tf) * idf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	return out, nil
}

// TopTerms returns the k highest-scoring terms of a TF-IDF result.
func TopTerms(scores []TermScore, k int) []TermScore {
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}
