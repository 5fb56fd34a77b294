package plan

import (
	"context"
	"errors"
	"fmt"

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

// Stream executes a row-returning plan and hands each result row to emit
// in clustering order, without materializing the result set — the NDJSON
// streaming path of the analytic server. emit runs on one goroutine at a
// time; returning an error cancels the remaining scan tasks. Aggregate
// plans are rejected (use Run).
func (ex *Executor) Stream(p *Plan, emit func(ResultRow) error) error {
	if ex.DB == nil || ex.Eng == nil {
		return fmt.Errorf("plan: executor needs a store and a compute engine")
	}
	if len(p.Sel.Aggs) > 0 {
		return fmt.Errorf("plan: aggregate query does not stream rows")
	}
	slices, err := ex.slices(p)
	if err != nil {
		return err
	}
	pruner := p.Pruner
	if ex.Opt.NoPrune {
		pruner = nil
	}
	stats := ex.Stats
	if stats == nil {
		stats = &persist.PruneStats{}
	}
	st := obs.StartSpan(ex.ctx(), "scan")
	err = ex.streamRows(p, slices, pruner, stats, emit)
	st.End()
	ex.Eng.NotePruning(int(stats.BlocksRead.Load()), int(stats.BlocksPruned.Load()))
	return err
}

// Run executes the plan and returns the result rows.
func (ex *Executor) Run(p *Plan) ([]ResultRow, error) {
	if ex.DB == nil || ex.Eng == nil {
		return nil, fmt.Errorf("plan: executor needs a store and a compute engine")
	}
	slices, err := ex.slices(p)
	if err != nil {
		return nil, err
	}
	pruner := p.Pruner
	if ex.Opt.NoPrune {
		pruner = nil
	}
	stats := ex.Stats
	if stats == nil {
		stats = &persist.PruneStats{}
	}
	var out []ResultRow
	st := obs.StartSpan(ex.ctx(), "scan")
	if len(p.Sel.Aggs) > 0 {
		out, err = ex.runAggregate(p, slices, pruner, stats)
	} else {
		out, err = ex.runStream(p, slices, pruner, stats)
	}
	st.End()
	ex.Eng.NotePruning(int(stats.BlocksRead.Load()), int(stats.BlocksPruned.Load()))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanTask streams one clustering slice of the partition through the
// residual filter.
func (ex *Executor) scanTask(p *Plan, rg store.Range, pruner store.Pruner, stats *store.PruneStats, each func(store.Row) error) error {
	it, err := ex.DB.ScanPartitionPrunedCtx(ex.ctx(), p.Sel.Table, p.Sel.Partition, rg, ex.CL, pruner, stats)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		if p.Filter != nil && !p.Filter.Eval(r) {
			continue
		}
		if err := each(r); err != nil {
			return err
		}
	}
	return it.Err()
}

// runStream executes a row-returning plan: scan tasks project in
// parallel, StreamScan delivers batches in clustering order, LIMIT stops
// the scan early.
func (ex *Executor) runStream(p *Plan, slices []store.Range, pruner store.Pruner, stats *store.PruneStats) ([]ResultRow, error) {
	out := []ResultRow{}
	err := ex.streamRows(p, slices, pruner, stats, func(r ResultRow) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// streamRows is the shared streaming core of runStream and Stream: it
// fans the slices out on the scan pool and delivers projected rows to
// emit one at a time, in clustering order, honoring the plan's LIMIT.
func (ex *Executor) streamRows(p *Plan, slices []store.Range, pruner store.Pruner, stats *store.PruneStats, emit func(ResultRow) error) error {
	limit := p.Sel.Limit
	tasks := make([]compute.ScanTask[ResultRow], len(slices))
	for i, rg := range slices {
		rg := rg
		tasks[i] = compute.ScanTask[ResultRow]{
			Index: i,
			Run: func(yield func(ResultRow) error) error {
				n := 0
				err := ex.scanTask(p, rg, pruner, stats, func(r store.Row) error {
					if err := yield(p.project(r)); err != nil {
						return err
					}
					n++
					if limit > 0 && n >= limit {
						// This task alone satisfies the global limit; stop
						// reading the slice instead of draining it.
						return errLimitReached
					}
					return nil
				})
				if errors.Is(err, errLimitReached) {
					return nil
				}
				return err
			},
		}
	}
	emitted := 0
	err := compute.StreamScan(ex.Eng, compute.ScanOptions{Parallelism: ex.Opt.Parallelism}, tasks,
		func(_ int, batch []ResultRow) error {
			for _, r := range batch {
				if limit > 0 && emitted >= limit {
					return errLimitReached
				}
				if err := emit(r); err != nil {
					return err
				}
				emitted++
			}
			if limit > 0 && emitted >= limit {
				return errLimitReached
			}
			return nil
		})
	if err != nil && !errors.Is(err, errLimitReached) {
		return err
	}
	return nil
}

// runAggregate executes an aggregate plan: each slice folds into its own
// accumulator — at consistency One straight off the store's batches, which
// carry only the columns the plan reads — and ScanFold merges the
// accumulators in slice order, deterministic across parallelism levels.
func (ex *Executor) runAggregate(p *Plan, slices []store.Range, pruner store.Pruner, stats *store.PruneStats) ([]ResultRow, error) {
	project := p.aggColumns()
	filter := newBatchFilter(p.Filter, project != nil)
	tasks := make([]compute.FoldTask[*aggAcc], len(slices))
	for i, rg := range slices {
		tasks[i] = func(a *aggAcc) (*aggAcc, int, error) {
			rows := 0
			fold := func(r store.Row) error {
				a.fold(r)
				rows++
				return nil
			}
			if ex.CL != store.One {
				// Reconciling reads materialize rows; fold those.
				err := ex.scanTask(p, rg, pruner, stats, fold)
				return a, rows, err
			}
			err := ex.DB.ScanPartitionBatches(ex.ctx(), p.Sel.Table, p.Sel.Partition, rg, project, pruner, stats,
				func(b *store.Batch) error {
					var sel [store.MaxBatchRows]bool
					filter.match(b, sel[:b.Len()])
					for i, ok := range sel[:b.Len()] {
						if ok {
							fold(b.Row(i))
						}
					}
					return nil
				})
			return a, rows, err
		}
	}
	acc, err := compute.ScanFold(ex.Eng, compute.ScanOptions{Parallelism: ex.Opt.Parallelism}, tasks,
		func() *aggAcc { return newAggAcc(p.Sel.Aggs, p.Sel.GroupBy) },
		func(a, b *aggAcc) *aggAcc { return a.merge(b) })
	if err != nil {
		return nil, err
	}
	return acc.rows(p.Sel.GroupBy, p.Sel.Limit), nil
}

// batchFilter is a residual filter cut for batches: the top-level
// conjuncts on one stored column each, which are decided on the column's
// vector — once per dictionary entry where a block stores the column so —
// and the rest, evaluated row by row on what those leave.
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

// match sets sel[i] to what the filter says of row i of b.
func (f batchFilter) match(b *store.Batch, sel []bool) {
	for i := range sel {
		sel[i] = true
	}
	for _, cp := range f.cols {
		col := cp.column()
		if !col.Known { // absent everywhere
			if !cp.matchValue("") {
				clear(sel)
			}
			continue
		}
		if codes, dict := b.Dict(col.ID); dict != nil {
			var ok [store.MaxBatchRows + 1]bool
			for k, v := range dict {
				ok[k] = cp.matchValue(v)
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

// aggColumns lists the columns an aggregate plan reads — its residual
// filter, aggregates and GROUP BY — as the projection its scan asks of the
// store. nil (every column) when the filter holds a predicate this
// function cannot see into.
func (p *Plan) aggColumns() []uint32 {
	cols := []uint32{}
	add := func(c ColRef) {
		if c.Known {
			cols = append(cols, c.ID)
		}
	}
	if !exprColumns(p.Filter, add) {
		return nil
	}
	for _, a := range p.Sel.Aggs {
		add(ColRef{ID: a.ID, Known: a.Known})
	}
	for _, g := range p.Sel.GroupBy {
		add(NewColRef(g))
	}
	return cols
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
