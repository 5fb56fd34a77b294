package persist

// The one last-write-wins merge: the order Newer ranks two versions of a
// key in, and a property test that no input's place decides a winner.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The fuzz columns are interned in reverse name order, so a rule that
// compared dictionary IDs would rank their cells backwards.
var fzCols = []uint32{InternColumn("fz-z"), InternColumn("fz-y"), InternColumn("fz-x")}

func TestNewerRanksByWriteTSThenCellsByName(t *testing.T) {
	if fzCols[0] > fzCols[2] {
		t.Fatalf("fz-z interned after fz-x: the columns do not run against name order")
	}
	z, y, x := fzCols[0], fzCols[1], fzCols[2]
	row := func(ts int64, cols ...Col) Row { return MakeRow("k", ts, cols) }
	for _, c := range []struct {
		name         string
		older, newer Row
	}{
		{"larger WriteTS", row(2, Col{x, "b"}), row(3, Col{x, "a"})},
		{"greater value", row(5, Col{x, "a"}), row(5, Col{x, "b"})},
		// By ID fz-z comes first and "b" > "a" would rank the first row
		// over the second; by name the first pairs are (fz-x, "a") and
		// (fz-x, "b").
		{"names, not IDs", row(5, Col{z, "b"}, Col{x, "a"}), row(5, Col{z, "a"}, Col{x, "b"})},
		// (fz-x, "a") sorts before (fz-y, "a"): the row without fz-x wins.
		{"first differing name", row(5, Col{x, "a"}), row(5, Col{y, "a"})},
		{"a proper prefix loses", row(5, Col{x, "a"}), row(5, Col{x, "a"}, Col{y, ""})},
		{"no cells lose", row(5), row(5, Col{z, ""})},
	} {
		if !Newer(c.newer, c.older) || Newer(c.older, c.newer) {
			t.Errorf("%s: Newer does not rank %v over %v", c.name, c.newer.Cols(), c.older.Cols())
		}
	}
	same := row(5, Col{y, "a"}, Col{z, "b"})
	if Newer(same, same.Clone()) {
		t.Error("a copy of a row wins over it")
	}
}

// lwwOracle returns, for each key of rows, the version the tie rule ranks
// first, in key order: the merge's answer worked out by sorting, under
// the rule as written here rather than as Newer computes it.
func lwwOracle(rows []Row) []Row {
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, func(a, b Row) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), cmp.Compare(a.WriteTS, b.WriteTS), slices.Compare(namedCells(a), namedCells(b)))
	})
	var out []Row
	for i, r := range sorted {
		if i+1 == len(sorted) || sorted[i+1].Key != r.Key {
			out = append(out, r)
		}
	}
	return out
}

// namedCells spells a row's cells as "name\x00value", sorted: in that form
// string order is (name, value) pair order.
func namedCells(r Row) []string {
	var out []string
	for _, c := range r.Cols() {
		out = append(out, ColumnName(c.ID)+"\x00"+c.Value)
	}
	slices.Sort(out)
	return out
}

// fuzzWrites draws one set of writes to few keys at two write timestamps,
// so keys repeat and WriteTS ties are the rule; a cell may be absent,
// empty or one of two values.
func fuzzWrites(rng *rand.Rand) []Row {
	rows := make([]Row, 1+rng.Intn(48))
	for i := range rows {
		var cols []Col
		for _, id := range fzCols {
			if rng.Intn(3) > 0 {
				cols = append(cols, Col{ID: id, Value: []string{"", "a", "b"}[rng.Intn(3)]})
			}
		}
		rows[i] = MakeRow(EncodeTS(int64(1000+rng.Intn(8))), int64(1+rng.Intn(2)), cols)
	}
	return rows
}

// FuzzMergeOrderFree permutes one set of writes and splits it into one to
// six merge inputs, each a run or a flushed segment, several ways: every
// split merges to the rows the oracle ranks first — so every split to the
// same rows — runs with repeated keys included; a merge of the splits as
// scans reports each input stale for exactly the winners it lacks or
// holds another version of; and compacting the segments writes exactly
// the rows a read of them returns.
func FuzzMergeOrderFree(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		writes := fuzzWrites(rng)
		want := lwwOracle(writes)
		s, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for split := 0; split < 4; split++ {
			k := 1 + rng.Intn(6)
			groups := make([][]Row, k)
			for _, i := range rng.Perm(len(writes)) {
				g := rng.Intn(k)
				groups[g] = append(groups[g], writes[i])
			}
			// A collected merge takes runs whose keys repeat, as a put's
			// batch is.
			raw := make([][]Row, k)
			for g, rows := range groups {
				raw[g] = slices.Clone(rows)
				slices.SortStableFunc(raw[g], func(a, b Row) int { return strings.Compare(a.Key, b.Key) })
			}
			if got := MergeRuns(raw...); !exactRows(got, want) {
				t.Fatalf("seed %d split %d: MergeRuns over %d runs: %v, want %v", seed, split, k, got, want)
			}
			// Each group, one version a key, is a replica's scan: the merge
			// reports a group for every winner it lacks or holds a losing
			// version of.
			srcs := make([]BatchIterator, k)
			reports := make([][]Row, k)
			for g, rows := range groups {
				srcs[g] = BatchRows(&cursor{run: lwwOracle(rows)}, nil, nil)
			}
			merged := drain(t, Rows(MergeBatches(srcs, nil, nil, func(g int, win Row) { reports[g] = append(reports[g], win) })))
			for g, rows := range groups {
				held := make(map[string]Row)
				for _, r := range lwwOracle(rows) {
					held[r.Key] = r
				}
				var stale []Row
				for _, w := range want {
					if r, ok := held[w.Key]; !ok || !exactRows([]Row{r}, []Row{w}) {
						stale = append(stale, w)
					}
				}
				if !exactRows(merged, want) || !exactRows(reports[g], stale) {
					t.Fatalf("seed %d split %d: a merge of %d scans gave %v and reported input %d stale for %v, want %v and %v",
						seed, split, k, merged, g, reports[g], want, stale)
				}
			}
			pkey := fmt.Sprint("p", split)
			var runs [][]Row
			var segWrites []Row
			for _, rows := range groups {
				switch {
				case len(rows) == 0:
				case rng.Intn(2) == 0:
					runs = append(runs, lwwOracle(rows))
				default:
					if err := s.Flush("t", pkey, lwwOracle(rows)); err != nil {
						t.Fatal(err)
					}
					segWrites = append(segWrites, rows...)
				}
			}
			segs := slices.Clone(s.Segments("t", pkey))
			rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
			rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
			read := func(segs []*Segment, runs [][]Row) []Row {
				it, err := Merge(Range{}, segs, make([]ScanConfig, len(segs)), runs, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return drain(t, Rows(it))
			}
			if got := read(segs, runs); !exactRows(got, want) {
				t.Fatalf("seed %d split %d: %d segments and %d runs merge to %v, want %v", seed, split, len(segs), len(runs), got, want)
			}
			if len(segs) < 2 {
				continue
			}
			before := read(segs, nil)
			if !exactRows(before, lwwOracle(segWrites)) {
				t.Fatalf("seed %d split %d: %d segments read %v, want %v", seed, split, len(segs), before, lwwOracle(segWrites))
			}
			if ok, err := s.CompactPartition("t", pkey, 1); err != nil || !ok {
				t.Fatalf("seed %d split %d: compaction of %d segments: %v, %v", seed, split, len(segs), ok, err)
			}
			compacted := s.Segments("t", pkey)
			if len(compacted) != 1 {
				t.Fatalf("seed %d split %d: compaction left %d segments", seed, split, len(compacted))
			}
			if got := read(compacted, nil); !exactRows(got, before) {
				t.Fatalf("seed %d split %d: compaction wrote %v, a read returned %v", seed, split, got, before)
			}
			if got := read(compacted, runs); !exactRows(got, want) {
				t.Fatalf("seed %d split %d: after compaction the inputs merge to %v, want %v", seed, split, got, want)
			}
		}
	})
}
