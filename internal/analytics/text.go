package analytics

import (
	"strings"
	"unicode"
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
// fresh strings the caller owns outright, never aliases of the message
// text. It is the reference tokenization: the text folds of WordCountScan
// and TFIDFScan work on eachRun directly and learn each spelling once
// (termAcc), and must count exactly what Tokenize yields.
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

// TermScore is one term with its aggregate TF-IDF weight.
type TermScore struct {
	Term  string
	Score float64
}

// TopTerms returns the k highest-scoring terms of a TF-IDF result.
func TopTerms(scores []TermScore, k int) []TermScore {
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}
