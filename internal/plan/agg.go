package plan

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"strings"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Aggregation state. Each scan task folds its rows into its own aggAcc
// (no locking; rows are consumed while their backing block is live, and
// everything retained is cloned), and ScanFold merges the accumulators
// in ascending task order — the same order a serial execution uses, so
// serial and parallel runs produce byte-identical results. Sums
// accumulate exactly in int64 while every added value is integral (the
// data model's counts), falling back to float64 otherwise.

// aggCell is the running state of one AggSpec within one group.
type aggCell struct {
	n int64 // counted cells: rows for COUNT(*), non-empty cells for
	// COUNT(col)/MIN/MAX, numeric cells for SUM/AVG

	sumI   int64
	sumF   float64
	sumInt bool // every summed value was integral

	sMin, sMax string // bytewise extremes over non-empty cells
	nMin, nMax float64
	nMinS      string // original cell text of the numeric extremes
	nMaxS      string
	hasNum     bool
	allNum     bool // every non-empty cell parsed as a number
}

func newAggCell() aggCell { return aggCell{sumInt: true, allNum: true} }

// group is the per-group aggregation state.
type group struct {
	vals  []string // group-by values, cloned out of the scan
	cells []aggCell
}

// aggAcc accumulates one scan task's aggregation.
type aggAcc struct {
	specs   []AggSpec
	groupBy []ColRef
	global  *group            // nil when grouping
	groups  map[string]*group // composite key -> group
	scratch []byte
}

func newAggAcc(specs []AggSpec, groupBy []string) *aggAcc {
	a := &aggAcc{specs: specs}
	if len(groupBy) == 0 {
		a.global = &group{cells: newCells(len(specs))}
		return a
	}
	a.groupBy = make([]ColRef, len(groupBy))
	for i, c := range groupBy {
		a.groupBy[i] = NewColRef(c)
	}
	a.groups = make(map[string]*group)
	return a
}

func newCells(n int) []aggCell {
	cells := make([]aggCell, n)
	for i := range cells {
		cells[i] = newAggCell()
	}
	return cells
}

// group returns the group whose GROUP BY values val gives, by position,
// made on first sight.
func (a *aggAcc) group(val func(i int) string) *group {
	// Composite key: length-prefix each value — a separator byte alone
	// would merge groups whose values contain it.
	a.scratch = a.scratch[:0]
	for i := range a.groupBy {
		v := val(i)
		a.scratch = binary.AppendUvarint(a.scratch, uint64(len(v)))
		a.scratch = append(a.scratch, v...)
	}
	g := a.groups[string(a.scratch)] // no allocation on the hit path
	if g == nil {
		vals := make([]string, len(a.groupBy))
		for i := range vals {
			vals[i] = strings.Clone(val(i))
		}
		g = &group{vals: vals, cells: newCells(len(a.specs))}
		a.groups[string(a.scratch)] = g
	}
	return g
}

// foldGroup accumulates into g rows rows whose counts sum to sum, as fold
// would one by one, for specs of COUNT(*) and SUM of the count column:
// exactly where each row's count is below 2^53 — so its sum is exact — and
// the rows all count 1 or are one row, so that the float sum adds what fold
// adds.
func (a *aggAcc) foldGroup(g *group, rows int, sum int64) {
	for i := range a.specs {
		c := &g.cells[i]
		c.n += int64(rows)
		if a.specs[i].Col == "" { // COUNT(*)
			continue
		}
		if c.sumInt {
			c.sumI += sum
		}
		if sum == int64(rows) {
			for k := 0; k < rows; k++ {
				c.sumF++
			}
		} else {
			c.sumF += float64(sum)
		}
	}
}

// fold accumulates one row.
func (a *aggAcc) fold(r store.Row) {
	g := a.global
	if g == nil {
		g = a.group(func(i int) string { return a.groupBy[i].value(r) })
	}
	for i := range a.specs {
		sp := &a.specs[i]
		c := &g.cells[i]
		if sp.Col == "" { // COUNT(*)
			c.n++
			continue
		}
		if !sp.Known {
			continue
		}
		v := r.ColID(sp.ID)
		if v == "" {
			continue
		}
		switch sp.Fn {
		case AggCount:
			c.n++
		case AggSum, AggAvg:
			f, ok := persist.ParseNum(v)
			if !ok {
				continue
			}
			c.n++
			c.sumF += f
			if c.sumInt {
				if f == math.Trunc(f) && math.Abs(f) < 1<<53 {
					c.sumI += int64(f)
				} else {
					c.sumInt = false
				}
			}
		case AggMin, AggMax:
			c.n++
			if c.n == 1 || v < c.sMin {
				c.sMin = strings.Clone(v)
			}
			if c.n == 1 || v > c.sMax {
				c.sMax = strings.Clone(v)
			}
			if f, ok := persist.ParseNum(v); ok {
				if !c.hasNum || f < c.nMin {
					c.nMin, c.nMinS = f, strings.Clone(v)
				}
				if !c.hasNum || f > c.nMax {
					c.nMax, c.nMaxS = f, strings.Clone(v)
				}
				c.hasNum = true
			} else {
				c.allNum = false
			}
		}
	}
}

// mergeCell folds src into dst.
func mergeCell(dst, src *aggCell) {
	if src.n == 0 {
		return
	}
	dst.sumF += src.sumF
	if dst.sumInt && src.sumInt {
		dst.sumI += src.sumI
	} else {
		dst.sumInt = false
	}
	if dst.n == 0 || (src.sMin != "" && src.sMin < dst.sMin) {
		dst.sMin = src.sMin
	}
	if dst.n == 0 || src.sMax > dst.sMax {
		dst.sMax = src.sMax
	}
	if src.hasNum {
		if !dst.hasNum || src.nMin < dst.nMin {
			dst.nMin, dst.nMinS = src.nMin, src.nMinS
		}
		if !dst.hasNum || src.nMax > dst.nMax {
			dst.nMax, dst.nMaxS = src.nMax, src.nMaxS
		}
		dst.hasNum = true
	}
	dst.allNum = dst.allNum && src.allNum
	dst.n += src.n
}

// merge folds src into a (ScanFold's in-order accumulator merge).
func (a *aggAcc) merge(src *aggAcc) *aggAcc {
	if a.global != nil {
		for i := range a.global.cells {
			mergeCell(&a.global.cells[i], &src.global.cells[i])
		}
		return a
	}
	for k, sg := range src.groups {
		g := a.groups[k]
		if g == nil {
			a.groups[k] = sg
			continue
		}
		for i := range g.cells {
			mergeCell(&g.cells[i], &sg.cells[i])
		}
	}
	return a
}

// formatFloat renders aggregate numerics the way the rest of the API
// renders numbers: shortest round-trip decimal.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// finalize renders one cell.
func (c *aggCell) finalize(fn AggFn) string {
	switch fn {
	case AggCount:
		return strconv.FormatInt(c.n, 10)
	case AggSum:
		if c.n == 0 {
			return "0"
		}
		if c.sumInt {
			return strconv.FormatInt(c.sumI, 10)
		}
		return formatFloat(c.sumF)
	case AggAvg:
		if c.n == 0 {
			return ""
		}
		if c.sumInt {
			return formatFloat(float64(c.sumI) / float64(c.n))
		}
		return formatFloat(c.sumF / float64(c.n))
	case AggMin:
		if c.n == 0 {
			return ""
		}
		if c.allNum && c.hasNum {
			return c.nMinS
		}
		return c.sMin
	case AggMax:
		if c.n == 0 {
			return ""
		}
		if c.allNum && c.hasNum {
			return c.nMaxS
		}
		return c.sMax
	}
	return ""
}

// rows renders the aggregation as sorted result rows: group values (in
// GROUP BY order) joined with "|" as the row key, the group columns plus
// one column per aggregate label. A global aggregate yields exactly one
// row (key ""), even over zero input rows.
func (a *aggAcc) rows(groupBy []string, limit int) []ResultRow {
	var groups []*group
	if a.global != nil {
		groups = []*group{a.global}
	} else {
		groups = make([]*group, 0, len(a.groups))
		for _, g := range a.groups {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, j int) bool {
			gi, gj := groups[i].vals, groups[j].vals
			for k := range gi {
				if gi[k] != gj[k] {
					return gi[k] < gj[k]
				}
			}
			return false
		})
	}
	if limit > 0 && len(groups) > limit {
		groups = groups[:limit]
	}
	out := make([]ResultRow, 0, len(groups))
	for _, g := range groups {
		row := ResultRow{Columns: make(map[string]string, len(groupBy)+len(a.specs))}
		row.Key = strings.Join(g.vals, "|")
		for i, col := range groupBy {
			row.Columns[col] = g.vals[i]
		}
		for i := range a.specs {
			row.Columns[a.specs[i].Label()] = g.cells[i].finalize(a.specs[i].Fn)
		}
		out = append(out, row)
	}
	return out
}
