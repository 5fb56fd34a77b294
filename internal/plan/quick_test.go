package plan

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Random-expression property tests for the evaluator: on arbitrary
// expression trees and arbitrary rows, Eval must never panic, double
// negation must be the identity (two-valued semantics), and De Morgan
// duality must hold between AND and OR.

var quickCols = []string{"type", "source", "amount", "raw", "ghost", "attr.x"}
var quickVals = []string{"", "MCE", "c0-0c1s2n3", "5", "10", "-3.5", "abc", "it's", "\x00weird", "0007"}

func randLit(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return fmt.Sprintf("%d", rng.Intn(20)-5)
	}
	return quickVals[rng.Intn(len(quickVals))]
}

func randExpr(rng *rand.Rand, depth int) Expr {
	col := NewColRef(quickCols[rng.Intn(len(quickCols))])
	if rng.Intn(8) == 0 {
		col = NewColRef("key")
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(3) {
		case 0:
			return NewCmp(col, CmpOp(rng.Intn(6)), randLit(rng))
		case 1:
			n := 1 + rng.Intn(3)
			vals := make([]string, n)
			for i := range vals {
				vals[i] = randLit(rng)
			}
			return NewIn(col, vals)
		default:
			pats := []string{"%", "c0-%", "%s2%", "abc", "%'s", "a%b%c", "%%", ""}
			return NewLike(col, pats[rng.Intn(len(pats))])
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &Not{Kid: randExpr(rng, depth-1)}
	case 1:
		return &And{Kids: []Expr{randExpr(rng, depth-1), randExpr(rng, depth-1)}}
	default:
		return &Or{Kids: []Expr{randExpr(rng, depth-1), randExpr(rng, depth-1)}}
	}
}

func randRow(rng *rand.Rand) store.Row {
	var kv []store.Col
	for _, c := range quickCols {
		if rng.Intn(2) == 0 {
			kv = append(kv, store.C(c, quickVals[rng.Intn(len(quickVals))]))
		}
	}
	key := quickVals[rng.Intn(len(quickVals))]
	if rng.Intn(2) == 0 {
		key = store.EncodeTS(int64(rng.Intn(1 << 30)))
	}
	return store.MakeRow(key, 1, kv)
}

func TestExprProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		e := randExpr(rng, 3)
		r := randRow(rng)
		got := e.Eval(r) // must not panic
		if nn := (&Not{Kid: &Not{Kid: e}}).Eval(r); nn != got {
			t.Fatalf("NOT(NOT(p)) != p for %s on %v", e, r.ColumnsMap())
		}
		// De Morgan: NOT(a AND b) == NOT a OR NOT b.
		a, b := randExpr(rng, 2), randExpr(rng, 2)
		lhs := (&Not{Kid: &And{Kids: []Expr{a, b}}}).Eval(r)
		rhs := (&Or{Kids: []Expr{&Not{Kid: a}, &Not{Kid: b}}}).Eval(r)
		if lhs != rhs {
			t.Fatalf("De Morgan violated for %s / %s", a, b)
		}
		// String rendering must never panic and re-rendering is stable.
		if s1, s2 := e.String(), e.String(); s1 != s2 {
			t.Fatalf("unstable String: %q vs %q", s1, s2)
		}
	}
}

// TestPrunerNeverLies: on random expressions and random blocks of rows, a
// pruned block must never contain a matching row (pruning may be
// conservative, never wrong).
func TestPrunerNeverLies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		e := randExpr(rng, 2)
		bp := compileBlockPred(e)
		if bp == nil {
			continue
		}
		rows := make([]store.Row, 0, 32)
		for j := 0; j < 32; j++ {
			rows = append(rows, randRow(rng))
		}
		rows, b := buildBlockStats(t, rows)
		if !bp.prune(b) {
			continue
		}
		for _, r := range rows {
			if e.Eval(r) {
				t.Fatalf("pruner dropped a block containing a match: expr %s row %v",
					e, r.ColumnsMap())
			}
		}
	}
}

// TestBatchFilterMatchesEval: on random expressions over the batches of a
// segment — whose low-cardinality columns come as dictionaries — and of
// the rows→Batch adapter, the batch filter says of every row what Eval
// says of it.
func TestBatchFilterMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([]store.Row, 300)
	for i := range rows {
		rows[i] = randRow(rng)
		rows[i].Key = store.EncodeTS(int64(i)) + rows[i].Key
	}
	w := persist.NewWriter("t", "p", 1)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(t.TempDir(), "f.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	dicts := 0
	for i := 0; i < 400; i++ {
		p := &Plan{Filter: randExpr(rng, 2), Sel: &Select{}, outCols: []projRef{}} // a projection: the scan carries the filter's columns
		project := p.scanColumns()
		filter := newBatchFilter(p.Filter, project != nil)
		sc, err := persist.ChainBatches(store.Range{}, false, []*persist.Segment{seg}, []persist.ScanConfig{{Project: project}})
		if err != nil {
			t.Fatal(err)
		}
		run, err := persist.Merge(store.Range{}, nil, nil, [][]store.Row{rows}, project, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []persist.BatchIterator{sc, run} {
			verdicts := filter.memos()
			for b, ok := src.Next(); ok; b, ok = src.Next() {
				var sel [store.MaxBatchRows]bool
				filter.match(b, sel[:b.Len()], verdicts)
				for j := range b.Keys() {
					if want := p.Filter.Eval(b.Row(j)); sel[j] != want {
						t.Fatalf("%s on row %q %v: batch filter says %v, Eval %v", p.Filter, b.Keys()[j], b.Row(j).ColumnsMap(), sel[j], want)
					}
				}
				for _, id := range project {
					if _, dict := b.Dict(id); dict != nil {
						dicts++
					}
				}
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			src.Close()
		}
	}
	if dicts == 0 {
		t.Fatal("no batch carried a dictionary: the test missed the path it is for")
	}
}
