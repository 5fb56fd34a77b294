package store

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hpclog/internal/store/persist"
)

func TestEncodeTSOrdering(t *testing.T) {
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		ea, eb := EncodeTS(a), EncodeTS(b)
		return (a < b) == (ea < eb) && (a == b) == (ea == eb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeTS(t *testing.T) {
	f := func(a int64) bool {
		if a < 0 {
			a = -a
		}
		got, err := DecodeTS(EncodeTS(a) + ":MCE:c0-0c0s0n0")
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeTSPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeTS(-1) did not panic")
		}
	}()
	EncodeTS(-1)
}

func TestDecodeTSErrors(t *testing.T) {
	if _, err := DecodeTS("short"); err == nil {
		t.Error("short key accepted")
	}
	if _, err := DecodeTS("abcdefghijabcdefghij"); err == nil {
		t.Error("non-digit key accepted")
	}
}

func TestRangeContains(t *testing.T) {
	rg := Range{From: "b", To: "d"}
	for key, want := range map[string]bool{"a": false, "b": true, "c": true, "d": false, "e": false} {
		if rg.Contains(key) != want {
			t.Errorf("Range[b,d).Contains(%q) = %v, want %v", key, !want, want)
		}
	}
	all := Range{}
	if !all.Contains("anything") {
		t.Error("zero Range should contain everything")
	}
}

func TestMergeRowsLastWriteWins(t *testing.T) {
	a := []Row{MapRow("1", 1, map[string]string{"v": "old"})}
	b := []Row{MapRow("1", 2, map[string]string{"v": "new"})}
	got := persist.MergeRuns(a, b)
	if len(got) != 1 || got[0].Col("v") != "new" {
		t.Fatalf("MergeRuns LWW got %+v", got)
	}
	// Order of inputs must not matter when WriteTS differs.
	got = persist.MergeRuns(b, a)
	if len(got) != 1 || got[0].Col("v") != "new" {
		t.Fatalf("MergeRuns LWW (swapped) got %+v", got)
	}
}

func TestMergeRowsProperty(t *testing.T) {
	// Merging random sorted lists yields a sorted, deduplicated union.
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nLists := 1 + rng.Intn(4)
		lists := make([][]Row, nLists)
		keys := map[string]bool{}
		for i := range lists {
			n := rng.Intn(20)
			for j := 0; j < n; j++ {
				k := fmt.Sprintf("%03d", rng.Intn(50))
				keys[k] = true
				lists[i] = append(lists[i], Row{Key: k, WriteTS: int64(rng.Intn(100))})
			}
			sort.Slice(lists[i], func(a, b int) bool { return lists[i][a].Key < lists[i][b].Key })
			// Collapse duplicate keys within one list to keep input canonical.
			dedup := lists[i][:0]
			for _, r := range lists[i] {
				if n := len(dedup); n > 0 && dedup[n-1].Key == r.Key {
					if r.WriteTS >= dedup[n-1].WriteTS {
						dedup[n-1] = r
					}
					continue
				}
				dedup = append(dedup, r)
			}
			lists[i] = dedup
		}
		got := persist.MergeRuns(lists...)
		if len(got) != len(keys) {
			t.Fatalf("iter %d: merged %d rows, want %d distinct keys", iter, len(got), len(keys))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key >= got[i].Key {
				t.Fatalf("iter %d: output not strictly sorted at %d", iter, i)
			}
		}
		for _, r := range got {
			maxTS := int64(-1)
			for _, l := range lists {
				for _, x := range l {
					if x.Key == r.Key && x.WriteTS > maxTS {
						maxTS = x.WriteTS
					}
				}
			}
			if r.WriteTS != maxTS {
				t.Fatalf("iter %d: key %s kept ts %d, want max %d", iter, r.Key, r.WriteTS, maxTS)
			}
		}
	}
}

func TestSliceRange(t *testing.T) {
	rows := []Row{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}}
	cases := []struct {
		rg   Range
		want []string
	}{
		{Range{}, []string{"a", "b", "c", "d"}},
		{Range{From: "b"}, []string{"b", "c", "d"}},
		{Range{To: "c"}, []string{"a", "b"}},
		{Range{From: "b", To: "d"}, []string{"b", "c"}},
		{Range{From: "x", To: "y"}, nil},
		{Range{From: "c", To: "a"}, nil},
	}
	for _, c := range cases {
		got := sliceRange(rows, c.rg)
		if len(got) != len(c.want) {
			t.Fatalf("sliceRange(%+v) = %d rows, want %d", c.rg, len(got), len(c.want))
		}
		for i := range got {
			if got[i].Key != c.want[i] {
				t.Fatalf("sliceRange(%+v)[%d] = %s, want %s", c.rg, i, got[i].Key, c.want[i])
			}
		}
	}
}

func TestRowClone(t *testing.T) {
	r := MapRow("k", 5, map[string]string{"a": "1"})
	c := r.Clone()
	if &c.Cols()[0] == &r.Cols()[0] {
		t.Fatal("Clone shares cells")
	}
	if c.Key != "k" || c.WriteTS != 5 || c.Col("a") != "1" {
		t.Fatalf("Clone = %+v", c)
	}
	if r.Col("missing") != "" {
		t.Fatal("Col on missing column should be empty")
	}
}

func TestMapRow(t *testing.T) {
	for name, m := range map[string]map[string]string{
		"nil":   nil,
		"empty": {},
		"one":   {"amount": "1"},
		"many":  {"zeta": "z", "source": "c0-0c0s0n0", "amount": "2", "attr.bank": "", "raw": "it's"},
	} {
		r := MapRow("k", 7, m)
		if r.Key != "k" || r.WriteTS != 7 {
			t.Fatalf("%s: MapRow = %+v", name, r)
		}
		cols := r.Cols()
		if len(cols) != len(m) {
			t.Fatalf("%s: %d cells, want %d", name, len(cols), len(m))
		}
		for i := 1; i < len(cols); i++ {
			if cols[i-1].ID >= cols[i].ID {
				t.Fatalf("%s: cells not sorted by ID: %v", name, cols)
			}
		}
		if got := r.ColumnsMap(); !maps.Equal(got, m) {
			t.Fatalf("%s: ColumnsMap(MapRow(m)) = %v, want %v", name, got, m)
		}
		for k, v := range m {
			if r.Col(k) != v {
				t.Fatalf("%s: Col(%q) = %q, want %q", name, k, r.Col(k), v)
			}
		}
	}
}
