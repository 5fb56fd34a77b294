package analytics

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// Tokenize splits raw log message text into analysis tokens: lowercased
// runs of letters/digits (so hexadecimal codes and component ids like
// ost0012 survive), minus stopwords and single characters. Tokens are
// fresh strings the caller owns outright, never aliases of the message
// text. It is the reference tokenization TextFold's word count and
// TF-IDF are held to; they hash each spelling into a Vocabulary table
// and tokenise it only the first time it is seen.
func Tokenize(text string) []string {
	var tokens []string
	eachRun(text, func(run string, clean bool) {
		if tok := tokenOf(run, clean); tok != "" {
			tokens = append(tokens, strings.Clone(tok))
		}
	})
	return tokens
}

// run is one call of eachRun's yield.
type run struct {
	text  string
	clean bool
}

// unicodeRuns is the tokenizer eachRun replaced, kept as its oracle: a rune
// loop over text asking the unicode package about every character.
func unicodeRuns(text string) []run {
	var out []run
	start, clean := -1, true
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
			out = append(out, run{text[start:i], clean})
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, run{text[start:], clean})
	}
	return out
}

func eachRuns(text string) []run {
	var out []run
	eachRun(text, func(s string, clean bool) { out = append(out, run{s, clean}) })
	return out
}

// tokenizerCases cover every ASCII byte, invalid UTF-8, non-ASCII upper,
// lower and title case, non-ASCII digits and letters without case, and a
// message far longer than any a block holds inline.
var tokenizerCases = func() []string {
	var ascii strings.Builder
	for c := 0; c < 0x80; c++ {
		ascii.WriteByte(byte(c))
		ascii.WriteString("ab")
	}
	long := strings.Repeat("LustreError: 11-0: atlas2-OST0012-osc failed with -110 ÉCHEC ", 70<<10/64)
	return []string{
		"",
		ascii.String(),
		"LustreError: 11-0: atlas2-OST0012-osc failed with -110",
		"mce: [Hardware Error]: CPU 12: Machine Check Exception: 5 Bank 4: b200000000070f0f",
		"ÉCHEC du nœud Ünit-7 — échec Du NŒUD ünit",
		"ǅemal ǆ ǄX title-case ǅ and ǲ", // title case: ToLower changes it
		"٣٤٥ digits ０１２ and ߁߂ xyz",     // non-ASCII digits
		"日本語のログ 中文 한국어 ok",              // letters without case
		"bad \xff\xfe utf8 \xc3 mid\xe2\x82word \xed\xa0\x80 end\xc3",
		"\x80", "a\x80b", "\xc3\xa9\xc3",
		"İstanbul ß ẞ Σσς ﬁ",
		long,
	}
}()

// TestEachRunMatchesUnicode holds the ASCII table of eachRun to the unicode
// package: the same runs, at the same offsets, with the same clean flags.
func TestEachRunMatchesUnicode(t *testing.T) {
	for _, text := range tokenizerCases {
		if got, want := eachRuns(text), unicodeRuns(text); !slices.Equal(got, want) {
			t.Fatalf("%.60q: eachRun yields %d runs, the unicode loop %d\n%v\n%v", text, len(got), len(want), got, want)
		}
	}
}

func FuzzEachRun(f *testing.F) {
	for _, text := range tokenizerCases {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := eachRuns(text), unicodeRuns(text); !slices.Equal(got, want) {
			t.Fatalf("%q: eachRun yields %v, the unicode loop %v", text, got, want)
		}
	})
}
