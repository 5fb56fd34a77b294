package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"

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
	// Parallelism bounds concurrent scan tasks; <= 0 means GOMAXPROCS.
	Parallelism int
	// SliceSeconds is the clustering-key time-slice width used to split a
	// partition scan into parallel tasks on time-clustered tables; <= 0
	// means 900.
	SliceSeconds int
	// NoPrune disables storage-level block pruning (benchmarks and
	// equivalence baselines; results are identical either way).
	NoPrune bool
}

// maxSlices bounds the scan-task fan-out of one partition query.
const maxSlices = 64

// Executor runs physical plans against a store through the compute scan
// pool.
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
		scan[i] = compute.ScanTask[ResultRow]{Index: i, Run: func(yield func(ResultRow) error) error {
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
		}}
	}
	out := []ResultRow{}
	err = compute.StreamScan(ex.Eng, compute.ScanOptions{Parallelism: ex.Opt.Parallelism}, scan,
		func(_ int, batch []ResultRow) error {
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
// reads, re-batched from the reconciled rows above consistency One — and
// decides the filter on their vectors. The caller runs each task at most
// once, then calls done, which closes the scan stage and notes the block
// counters.
func (ex *Executor) RowTasks(p *Plan) (tasks []RowTask, done func(), err error) {
	if ex.DB == nil || ex.Eng == nil {
		return nil, nil, fmt.Errorf("plan: executor needs a store and a compute engine")
	}
	slices, err := ex.slices(p)
	if err != nil {
		return nil, nil, err
	}
	project := p.scanColumns()
	filter := newBatchFilter(p.Filter, project != nil)
	stats := ex.stats()
	st := obs.StartSpan(ex.ctx(), "scan")
	tasks = make([]RowTask, len(slices))
	for i, rg := range slices {
		tasks[i] = func(each func(*store.Batch, int) error) error {
			verdicts := filter.memos()
			return ex.scanBatches(p, rg, project, stats, func(b *store.Batch) error {
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
	return tasks, func() {
		st.End()
		ex.Eng.NotePruning(int(stats.BlocksRead.Load()), int(stats.BlocksPruned.Load()))
	}, nil
}

// stats returns the block counters a scan accumulates into.
func (ex *Executor) stats() *persist.PruneStats {
	if ex.Stats != nil {
		return ex.Stats
	}
	return &persist.PruneStats{}
}

// scanBatches streams one clustering slice of the plan's partition, at the
// executor's consistency level, to fn as batches carrying project.
func (ex *Executor) scanBatches(p *Plan, rg store.Range, project []uint32, stats *persist.PruneStats, fn func(*store.Batch) error) error {
	pruner := p.Pruner
	if ex.Opt.NoPrune {
		pruner = nil
	}
	it, err := ex.DB.PartitionBatches(ex.ctx(), p.Sel.Table, p.Sel.Partition, rg, ex.CL, project, pruner, stats)
	if err != nil {
		return err
	}
	defer it.Close()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		if err := fn(b); err != nil {
			return err
		}
	}
	return it.Err()
}

// runAggregate executes an aggregate plan: each slice's rows fold into an
// accumulator of the slice's own, straight off the store's batches, and
// ScanFold merges the accumulators in slice order, deterministic across
// parallelism levels.
func (ex *Executor) runAggregate(p *Plan) ([]ResultRow, error) {
	tasks, done, err := ex.RowTasks(p)
	if err != nil {
		return nil, err
	}
	folds := make([]compute.FoldTask[*aggAcc], len(tasks))
	for i, task := range tasks {
		folds[i] = func(a *aggAcc) (*aggAcc, int, error) {
			rows := 0
			err := task(func(b *store.Batch, j int) error {
				a.fold(b.Row(j))
				rows++
				return nil
			})
			return a, rows, err
		}
	}
	acc, err := compute.ScanFold(ex.Eng, compute.ScanOptions{Parallelism: ex.Opt.Parallelism}, folds,
		func() *aggAcc { return newAggAcc(p.Sel.Aggs, p.Sel.GroupBy) },
		func(a, b *aggAcc) *aggAcc { return a.merge(b) })
	done()
	if err != nil {
		return nil, err
	}
	return acc.rows(p.Sel.GroupBy, p.Sel.Limit), nil
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
	if ex.CL != store.One {
		// Reconciling reads materialize per replica; slicing would
		// multiply that cost.
		return whole, nil
	}
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
	width := int64(ex.Opt.SliceSeconds)
	if width <= 0 {
		width = 900
	}
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
