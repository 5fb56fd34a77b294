package analytics

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords are tokens carrying no diagnostic signal in Cray/Lustre logs.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "on": true, "in": true,
	"to": true, "with": true, "by": true, "for": true, "and": true,
	"is": true, "at": true, "from": true, "this": true, "was": true,
	"error": true, "failed": true, "operation": true, // present in ~every line
}

// maxStopword is the length of the longest stopword: no longer run is one.
var maxStopword = func() (n int) {
	for w := range stopwords {
		n = max(n, len(w))
	}
	return n
}()

// eachRun calls yield for every maximal run of letters and digits in text,
// in order — a substring of text, never a copy — and says whether the run
// is clean: already lowercase, the overwhelming case in log text. byteClass
// classifies every byte; only a byte from utf8.RuneSelf up starts a rune to
// decode. Inside a run, lowercase ASCII — hex digits, words — is skipped by
// a loop of one table load per byte.
func eachRun(text string, yield func(run string, clean bool)) {
	start, clean := -1, true // start: byte offset of the current run, -1 between runs
	for i := 0; i < len(text); {
		class, size := byteClass[text[i]], 1
		if class == multiByte {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			class = runeClass(r)
		}
		if class == 0 {
			if start >= 0 {
				yield(text[start:i], clean)
				start = -1
			}
			i += size
			continue
		}
		if start < 0 {
			start, clean = i, true
		}
		clean = clean && class == alnumLower
		for i += size; i < len(text) && byteClass[text[i]] == alnumLower; i++ {
		}
	}
	if start >= 0 {
		yield(text[start:], clean)
	}
}

// The classes of a letter or digit, by whether ToLower leaves it alone, and
// of a byte that starts or continues a multi-byte character.
const alnumLower, alnumUpper, multiByte = 1, 2, 3

// runeClass classifies r as the unicode package does (0: not alphanumeric).
func runeClass(r rune) uint8 {
	switch {
	case !unicode.IsLetter(r) && !unicode.IsDigit(r):
		return 0
	case unicode.ToLower(r) != r:
		return alnumUpper
	}
	return alnumLower
}

// byteClass is runeClass of every byte below utf8.RuneSelf and multiByte
// of every other.
var byteClass = func() (t [256]uint8) {
	for c := range t {
		if t[c] = multiByte; c < utf8.RuneSelf {
			t[c] = runeClass(rune(c))
		}
	}
	return t
}()

// tokenOf turns a run into its analysis token: case-folded, or "" for a
// stopword or a single character. Only folding allocates.
func tokenOf(run string, clean bool) string {
	if !clean {
		run = strings.ToLower(run)
	}
	if len(run) < 2 || len(run) <= maxStopword && stopwords[run] {
		return ""
	}
	return run
}

// TermScore is one term with its aggregate TF-IDF weight.
type TermScore struct {
	Term  string
	Score float64
}

// TopK returns the first k items under cmp, a total order, sorted — all of
// them when k <= 0 — selected in place in items, whose order and tail it
// spends: items[:k] becomes a heap with the last on top, which a later item
// must beat, so only k items are ever sorted.
func TopK[T any](items []T, k int, cmp func(a, b T) int) []T {
	if k > 0 && k < len(items) {
		top := items[:k]
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(top, i, cmp)
		}
		for _, x := range items[k:] {
			if cmp(x, top[0]) < 0 {
				top[0] = x
				siftDown(top, 0, cmp)
			}
		}
		items = top
	}
	slices.SortFunc(items, cmp)
	return items
}

// siftDown moves h[i] down the heap h until no child comes after it.
func siftDown[T any](h []T, i int, cmp func(a, b T) int) {
	for {
		last := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && cmp(h[c], h[last]) > 0 {
				last = c
			}
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}
