package enginetest

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hpclog/internal/query"
)

// answersFile pins the corpus: one line per case — its name, the byte
// length of its wire JSON and the JSON's SHA-256 — and one per bad
// request of TestErrorParity — the request's JSON and its quoted wire
// error. The harnesses compare against each other; this file compares
// them all against answers recorded once, so a change that moves every
// path the same way still fails. A missing line is appended and fails the
// test; delete a line (or the file) to record it anew.
var answersFile = filepath.Join("testdata", "answers.txt")

var answers struct {
	sync.Mutex
	lines map[string]string // key → the rest of its line
}

// pinned checks value against the line key holds in answersFile.
func pinned(t *testing.T, key, value string) {
	t.Helper()
	answers.Lock()
	defer answers.Unlock()
	if answers.lines == nil {
		answers.lines = readAnswers(t)
	}
	want, ok := answers.lines[key]
	if ok {
		if value != want {
			t.Errorf("%s: answer %s, pinned %s", key, value, want)
		}
		return
	}
	f, err := os.OpenFile(answersFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fmt.Fprintf(f, "%s %s\n", key, value)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	answers.lines[key] = value
	t.Errorf("%s: no pinned answer; recorded %s in %s", key, value, answersFile)
}

func readAnswers(t *testing.T) map[string]string {
	out := make(map[string]string)
	f, err := os.Open(answersFile)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, value, _ := strings.Cut(sc.Text(), " ")
		out[key] = value
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// pinAnswer checks a case's wire result against its pinned length and
// digest.
func pinAnswer(t *testing.T, name string, result []byte) {
	t.Helper()
	pinned(t, name, fmt.Sprintf("%d %x", len(result), sha256.Sum256(result)))
}

// pinError checks the wire error of a bad request against its pinned
// text.
func pinError(t *testing.T, req query.Request, err error) {
	t.Helper()
	key, jerr := json.Marshal(req)
	if jerr != nil {
		t.Fatal(jerr)
	}
	pinned(t, "error:"+string(key), strconv.Quote(err.Error()))
}
