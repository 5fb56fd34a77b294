package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"hpclog/internal/compute"
	"hpclog/internal/obs"
	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// ResultRow is one row of a SELECT result: the clustering key plus the
// projected (or aggregated) columns. It is the wire shape of the CQL
// result rows.
type ResultRow struct {
	Key     string            `json:"key"`
	Columns map[string]string `json:"columns"`
}

// ExecOptions tunes plan execution.
type ExecOptions struct {
	// NoPrune disables storage-level block pruning (benchmarks and
	// equivalence baselines; results are identical either way).
	NoPrune bool
}

// sliceSeconds is the clustering-key time-slice width that splits a
// partition scan into parallel tasks on time-clustered tables, and
// maxSlices bounds the scan-task fan-out of one partition query.
const (
	sliceSeconds = 900
	maxSlices    = 64
)

// Executor runs physical plans against a store through the compute scan
// pool, as wide as Eng.
type Executor struct {
	DB  *store.DB
	Eng *compute.Engine
	CL  store.Consistency
	Opt ExecOptions
	// Stats, when non-nil, receives this executor's block counters in
	// addition to the engine's aggregate counters.
	Stats *persist.PruneStats
	// Ctx, when set, is the request context: its request ID rides every
	// remote shard call and its trace span (if any) records the scan
	// stage. Nil means context.Background().
	Ctx context.Context
}

// ctx returns the executor's request context, never nil.
func (ex *Executor) ctx() context.Context {
	if ex.Ctx != nil {
		return ex.Ctx
	}
	return context.Background()
}

// errLimitReached cancels a streaming scan once LIMIT rows are emitted.
var errLimitReached = errors.New("plan: limit reached")

// ResumeAfter narrows the plan to clustering keys strictly greater than
// key — the pagination resume point. Row keys are unique within a
// partition, so "strictly after" is key+"\x00" as an inclusive lower
// bound; the existing pushed-down range still applies on top.
func (p *Plan) ResumeAfter(key string) {
	next := key + "\x00"
	if p.Range.From == "" || p.Range.From < next {
		p.Range.From = next
	}
}

// Paginated reports whether the plan produces a resumable row stream:
// aggregates collapse to one document and cannot be paginated.
func (p *Plan) Paginated() bool { return len(p.Sel.Aggs) == 0 }

// Run executes the plan and returns the result rows — the in-process
// sink of the row scan RowTasks plans, or the aggregate fold.
func (ex *Executor) Run(p *Plan) ([]ResultRow, error) {
	if len(p.Sel.Aggs) > 0 {
		return ex.runAggregate(p)
	}
	tasks, done, err := ex.RowTasks(p)
	if err != nil {
		return nil, err
	}
	defer done()
	limit := p.Sel.Limit
	scan := make([]compute.ScanTask[ResultRow], len(tasks))
	for i, task := range tasks {
		scan[i] = func(yield func(ResultRow) error) error {
			n := 0
			var fields []Field
			err := task(func(b *store.Batch, j int) error {
				fields = p.Fields(fields[:0], b, j)
				if err := yield(resultRow(b.Keys()[j], fields)); err != nil {
					return err
				}
				// A task alone may satisfy the limit: stop reading its slice.
				if n++; limit > 0 && n >= limit {
					return errLimitReached
				}
				return nil
			})
			if errors.Is(err, errLimitReached) {
				return nil
			}
			return err
		}
	}
	out := []ResultRow{}
	err = compute.StreamScan(ex.Eng, scan,
		func(batch []ResultRow) error {
			if limit > 0 && len(batch) > limit-len(out) {
				batch = batch[:limit-len(out)]
			}
			if out = append(out, batch...); limit > 0 && len(out) >= limit {
				return errLimitReached
			}
			return nil
		})
	if err != nil && !errors.Is(err, errLimitReached) {
		return nil, err
	}
	return out, nil
}

// resultRow copies one row out as a ResultRow.
func resultRow(key string, fields []Field) ResultRow {
	r := ResultRow{Key: strings.Clone(key)}
	if fields != nil {
		r.Columns = make(map[string]string, len(fields))
		for _, f := range fields {
			r.Columns[f.Name] = strings.Clone(f.Value)
		}
	}
	return r
}

// RowTask is one scan task of a row-returning plan: it reads one
// clustering slice of the partition and hands every row the plan's filter
// selects — its batch and index, valid until each returns — to each, in
// clustering order. each's error stops the task and is returned.
type RowTask func(each func(b *store.Batch, i int) error) error

// RowTasks cuts a plan into its scan tasks, one per clustering slice, in
// clustering order: the one scan behind every SELECT result — rows encoded
// for the wire, rows built as records by Run, rows folded into aggregates.
// A task reads its slice as batches — projected to the columns the plan
// reads, merged across the replicas above consistency One — and decides
// the filter on their vectors. The caller runs each task at most
// once, then calls done, which closes the scan stage and notes the block
// counters.
func (ex *Executor) RowTasks(p *Plan) (tasks []RowTask, done func(), err error) {
	scans, _, finish, err := ex.sliceScans(p)
	if err != nil {
		return nil, nil, err
	}
	tasks = make([]RowTask, len(scans))
	for i, scan := range scans {
		tasks[i] = func(each func(*store.Batch, int) error) error { return scan(p.Pruner, each) }
	}
	return tasks, func() { finish(0) }, nil
}

// sliceScan is a RowTask whose scan offers its blocks to pr.
type sliceScan func(pr persist.Pruner, each func(b *store.Batch, i int) error) error

// sliceScans cuts a plan into the scans of RowTasks, with the slices they
// read; finish closes the scan stage and notes the block counters, of
// which taken blocks the scans' pruners took whole.
func (ex *Executor) sliceScans(p *Plan) (scans []sliceScan, ranges []store.Range, finish func(taken int), err error) {
	if ex.DB == nil || ex.Eng == nil {
		return nil, nil, nil, fmt.Errorf("plan: executor needs a store and a compute engine")
	}
	ranges, err = ex.slices(p)
	if err != nil {
		return nil, nil, nil, err
	}
	project := p.scanColumns()
	filter := newBatchFilter(p.Filter, project != nil)
	stats := ex.stats()
	st := obs.StartSpan(ex.ctx(), "scan")
	scans = make([]sliceScan, len(ranges))
	for i, rg := range ranges {
		scans[i] = func(pr persist.Pruner, each func(*store.Batch, int) error) error {
			if ex.Opt.NoPrune {
				pr = nil
			}
			verdicts := filter.memos()
			return ex.DB.ScanPartitionBatches(ex.ctx(), p.Sel.Table, p.Sel.Partition, rg, ex.CL, project, pr, stats, func(b *store.Batch) error {
				var sel [store.MaxBatchRows]bool
				filter.match(b, sel[:b.Len()], verdicts)
				for j, ok := range sel[:b.Len()] {
					if ok {
						if err := each(b, j); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}
	}
	return scans, ranges, func(taken int) {
		st.End()
		ex.Eng.NotePruning(int(stats.BlocksRead.Load()), int(stats.BlocksPruned.Load())-taken)
		ex.Eng.NoteTaken(taken)
	}, nil
}

// stats returns the block counters a scan accumulates into.
func (ex *Executor) stats() *persist.PruneStats {
	if ex.Stats != nil {
		return ex.Stats
	}
	return &persist.PruneStats{}
}

// runAggregate executes an aggregate plan: each slice's rows fold into an
// accumulator of the slice's own, straight off the store's batches — and,
// under the group rule, the blocks a store.Taker takes from their footers
// — and ScanFold merges the accumulators in slice order, deterministic
// across pool widths.
func (ex *Executor) runAggregate(p *Plan) ([]ResultRow, error) {
	scans, ranges, finish, err := ex.sliceScans(p)
	if err != nil {
		return nil, err
	}
	var taken atomic.Int64
	folds := make([]compute.FoldTask[*aggAcc], len(scans))
	for i, scan := range scans {
		folds[i] = func(a *aggAcc) (*aggAcc, int, error) {
			rows := 0
			pr := p.Pruner
			var t *store.Taker
			if p.groups != nil {
				t = &store.Taker{Range: ranges[i], Take: p.groups.take(a)}
				pr = t
			}
			err := scan(pr, func(b *store.Batch, j int) error {
				a.fold(b.Row(j))
				rows++
				return nil
			})
			if t != nil {
				rows += t.Rows
				taken.Add(int64(t.Blocks))
			}
			return a, rows, err
		}
	}
	acc, err := compute.ScanFold(ex.Eng, folds,
		func() *aggAcc { return newAggAcc(p.Sel.Aggs, p.Sel.GroupBy) },
		func(a, b *aggAcc) *aggAcc { return a.merge(b) })
	finish(int(taken.Load()))
	if err != nil {
		return nil, err
	}
	return acc.rows(p.Sel.GroupBy, p.Sel.Limit), nil
}

// take returns the take func of an aggregate task of the group rule,
// folding into acc: a block that lists its groups of the GROUP BY column —
// or holds one value of it in every row — is folded from its footer. A
// sum needs each count below 2^53 and every group's rows to count 1 each
// or to be one row (see foldGroup).
func (r *groupRule) take(acc *aggAcc) func(b *persist.BlockStats, sum int64) bool {
	// byCode holds the group of each code of dict, the section dictionary
	// of the list taken last, once seen.
	var dict []string
	var byCode []*group
	exact := func(rows int, sum int64) bool { return !r.sum || rows == 1 || sum == int64(rows) }
	return func(b *persist.BlockStats, sum int64) bool {
		if z := b.Zone(r.count); r.sum && (z == nil || z.MaxNum >= 1<<53) {
			return false
		}
		if v, ok := b.Only(r.col); ok {
			if !exact(b.Rows, sum) {
				return false
			}
			acc.foldGroup(acc.group(func(int) string { return v }), b.Rows, sum)
			return true
		}
		groups, d, ok := b.Groups(r.col)
		if !ok {
			return false
		}
		check := groups
		for g, more := check.Next(); more; g, more = check.Next() {
			if !exact(g.Rows, g.Sum) {
				return false
			}
		}
		if len(d) != len(dict) || &d[0] != &dict[0] {
			dict, byCode = d, make([]*group, len(d))
		}
		for g, more := groups.Next(); more; g, more = groups.Next() {
			grp := byCode[g.Code]
			if grp == nil {
				grp = acc.group(func(int) string { return dict[g.Code] })
				byCode[g.Code] = grp
			}
			acc.foldGroup(grp, g.Rows, g.Sum)
		}
		return true
	}
}

// batchFilter is a residual filter cut for batches: the top-level
// conjuncts on one stored column each, which are decided on the column's
// vector — once per dictionary entry where a block stores the column so,
// and once per section where a section's dictionary codes it — and the
// rest, evaluated row by row on what those leave.
type batchFilter struct {
	cols []colPred
	rest Expr
}

// newBatchFilter cuts e; vectors says the batches will carry a vector for
// every known column e names.
func newBatchFilter(e Expr, vectors bool) batchFilter {
	var f batchFilter
	var rest []Expr
	for _, c := range Conjuncts(e) {
		if cp, ok := c.(colPred); ok && vectors && !cp.column().IsKey {
			f.cols = append(f.cols, cp)
		} else {
			rest = append(rest, c)
		}
	}
	f.rest = FromConjuncts(rest)
	return f
}

// memos returns what a scan task keeps of the column conjuncts' verdicts
// on dictionary entries, one per conjunct (see match).
func (f batchFilter) memos() []persist.DictMemo[bool] {
	return make([]persist.DictMemo[bool], len(f.cols))
}

// match sets sel[i] to what the filter says of row i of b; verdicts are
// the scan task's memos.
func (f batchFilter) match(b *store.Batch, sel []bool, verdicts []persist.DictMemo[bool]) {
	for i := range sel {
		sel[i] = true
	}
	for j, cp := range f.cols {
		col := cp.column()
		if !col.Known { // absent everywhere
			if !cp.matchValue("") {
				clear(sel)
			}
			continue
		}
		if codes, dict, ok, fresh := verdicts[j].Resolve(b, col.ID); dict != nil {
			if fresh {
				for k, v := range dict {
					ok[k] = cp.matchValue(v)
				}
			}
			for i, c := range codes {
				sel[i] = sel[i] && ok[c]
			}
			continue
		}
		for i, v := range b.Col(col.ID) {
			sel[i] = sel[i] && cp.matchValue(v)
		}
	}
	if f.rest != nil {
		for i := range sel {
			sel[i] = sel[i] && f.rest.Eval(b.Row(i))
		}
	}
}

// exprColumns reports every column reference of e to add; false means e
// contains a node of unknown shape.
func exprColumns(e Expr, add func(ColRef)) bool {
	var kids []Expr
	switch e := e.(type) {
	case nil:
	case *Cmp:
		add(e.Col)
	case *In:
		add(e.Col)
	case *Like:
		add(e.Col)
	case *Not:
		return exprColumns(e.Kid, add)
	case *And:
		kids = e.Kids
	case *Or:
		kids = e.Kids
	default:
		return false
	}
	for _, k := range kids {
		if !exprColumns(k, add) {
			return false
		}
	}
	return true
}

// slices splits the plan's clustering range into parallel scan tasks on
// time-clustered partitions (EncodeTS key prefixes), falling back to one
// task when the keys are not time-shaped or the span is narrow. Slice
// boundaries are pure EncodeTS prefixes, so concatenating the slices
// reproduces the full range exactly.
func (ex *Executor) slices(p *Plan) ([]store.Range, error) {
	whole := []store.Range{p.Range}
	min, max, ok, err := ex.DB.PartitionKeyBoundsCtx(ex.ctx(), p.Sel.Table, p.Sel.Partition)
	if err != nil || !ok {
		return whole, err
	}
	lo := p.Range.From
	if lo == "" || min > lo {
		lo = min
	}
	// hi is inclusive-ish: only used to size the slicing.
	hi := max
	if p.Range.To != "" && p.Range.To < hi {
		hi = p.Range.To
	}
	t0, err0 := store.DecodeTS(lo)
	t1, err1 := store.DecodeTS(hi)
	if err0 != nil || err1 != nil || t1 < t0 {
		return whole, nil
	}
	width := int64(sliceSeconds)
	n := (t1-t0)/width + 1
	if n > maxSlices {
		width = (t1 - t0 + maxSlices) / maxSlices
		n = (t1-t0)/width + 1
	}
	if n <= 1 {
		return whole, nil
	}
	out := make([]store.Range, 0, n)
	for i := int64(0); i < n; i++ {
		rg := store.Range{
			From: store.EncodeTS(t0 + i*width),
			To:   store.EncodeTS(t0 + (i+1)*width),
		}
		if i == 0 {
			rg.From = p.Range.From
		}
		if i == n-1 {
			rg.To = p.Range.To
		}
		out = append(out, rg)
	}
	return out, nil
}
