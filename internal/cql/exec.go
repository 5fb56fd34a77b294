package cql

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"hpclog/internal/compute"
	"hpclog/internal/obs"
	"hpclog/internal/plan"
	"hpclog/internal/store"
)

// ResultRow is one row of a query result: the clustering key plus the
// selected columns. It is the planner's result shape re-exported.
type ResultRow = plan.ResultRow

// Result is the outcome of executing a statement.
type Result struct {
	// Rows is populated by SELECT.
	Rows []ResultRow `json:"rows,omitempty"`
	// Plan is populated by EXPLAIN: the operator tree, one line per
	// operator.
	Plan []string `json:"plan,omitempty"`
	// Tables is populated by DESCRIBE TABLES.
	Tables []string `json:"tables,omitempty"`
	// Schema is populated by DESCRIBE TABLE: observed column names.
	Schema []string `json:"schema,omitempty"`
	// Applied is true for a successful INSERT.
	Applied bool `json:"applied,omitempty"`
}

// Session executes statements against a store at a fixed consistency.
// SELECTs compile through the query planner (internal/plan) and execute
// on the compute scan pool with predicate pushdown.
type Session struct {
	DB *store.DB
	CL store.Consistency
	// Eng executes SELECT plans; nil lazily creates a private engine of
	// one worker id, as wide as the machine (tests, embedded use).
	Eng *compute.Engine
	// Ctx, when set, is the request context: its request ID rides remote
	// shard calls, and its trace span (if any) records the parse,
	// plan.build, and scan stages plus the statement text and EXPLAIN
	// plan for the slow-query log. Nil means context.Background().
	Ctx context.Context

	engOnce sync.Once
	engLazy *compute.Engine
}

// ctx returns the session's request context, never nil.
func (s *Session) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// Executor builds the plan executor sharing the session's store,
// consistency, engine and context.
func (s *Session) Executor() *plan.Executor {
	return &plan.Executor{DB: s.DB, Eng: s.engine(), CL: s.CL, Ctx: s.Ctx}
}

func (s *Session) engine() *compute.Engine {
	if s.Eng != nil {
		return s.Eng
	}
	s.engOnce.Do(func() {
		s.engLazy = compute.NewEngine(compute.Config{Workers: []string{"cql"}})
	})
	return s.engLazy
}

// Execute parses and runs one statement.
func (s *Session) Execute(src string) (*Result, error) {
	stmt, p, err := s.Prepare(src)
	if err != nil {
		return nil, err
	}
	return s.Run(stmt, p)
}

// Prepare parses one statement and, when it is a SELECT, compiles its
// plan: the stages every way of executing it starts with, traced as parse
// and plan.build. p is nil for every other statement.
func (s *Session) Prepare(src string) (stmt Statement, p *plan.Plan, err error) {
	obs.SpanFromContext(s.ctx()).SetQuery(src)
	pg := obs.StartSpan(s.ctx(), "parse")
	stmt, err = Parse(src)
	pg.End()
	if err != nil {
		return nil, nil, err
	}
	if st, ok := stmt.(*SelectStmt); ok {
		p, err = s.build(st)
	}
	return stmt, p, err
}

// Run executes a parsed statement with the plan Prepare made for it (nil
// plans a SELECT here).
func (s *Session) Run(stmt Statement, p *plan.Plan) (*Result, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		var err error
		if p == nil {
			if p, err = s.build(st); err != nil {
				return nil, err
			}
		}
		rows, err := s.Executor().Run(p)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows}, nil
	case *ExplainStmt:
		return s.runExplain(st)
	case *InsertStmt:
		return s.runInsert(st)
	case *DescribeStmt:
		return s.runDescribe(st)
	default:
		return nil, fmt.Errorf("cql: unknown statement type %T", stmt)
	}
}

// logical converts the parsed statement to the planner's logical form.
func (st *SelectStmt) logical() *plan.Select {
	return &plan.Select{
		Table:     st.Table,
		Partition: st.Partition,
		Columns:   st.Columns,
		Aggs:      st.Aggs,
		GroupBy:   st.GroupBy,
		Where:     st.Where,
		Limit:     st.Limit,
	}
}

// ErrNotPaginated reports a statement that cannot be cursor-paginated:
// only non-aggregate SELECTs produce resumable row streams.
var ErrNotPaginated = fmt.Errorf("cql: statement is not a paginatable SELECT (aggregates and DDL return single documents)")

// ErrNotStreamable reports a statement that does not produce a row
// stream.
var ErrNotStreamable = fmt.Errorf("cql: statement is not a streamable SELECT (aggregates and DDL return single documents)")

// rowPlan prepares src and requires a row-returning SELECT.
func (s *Session) rowPlan(src string, sentinel error) (*plan.Plan, error) {
	_, p, err := s.Prepare(src)
	if err != nil {
		return nil, err
	}
	if p == nil || !p.Paginated() {
		return nil, sentinel
	}
	return p, nil
}

// build compiles the statement under a plan.build stage and attaches the
// EXPLAIN rendering to the request's trace span.
func (s *Session) build(st *SelectStmt) (*plan.Plan, error) {
	bg := obs.StartSpan(s.ctx(), "plan.build")
	p, err := plan.Build(st.logical())
	bg.End()
	if err != nil {
		return nil, err
	}
	obs.SpanFromContext(s.ctx()).SetPlan(p.Explain())
	return p, nil
}

// SelectPage plans one page of a non-aggregate SELECT: at most limit
// rows, strictly after afterKey (the previous page's last clustering key)
// when resuming, with a statement-level LIMIT honored across pages given
// the rows already delivered. The plan's LIMIT is the page's row budget;
// last reports that the budget is what remains of the statement's LIMIT,
// so a full page ends the result. A nil plan means the statement's LIMIT
// is spent: the page is empty and the last.
//
// Resumption re-plans the statement with the pushed-down scan range
// narrowed to keys after afterKey — a data position, not server state —
// so pages stay correct across restart and segment compaction.
func (s *Session) SelectPage(src string, limit int, resume bool, afterKey string, delivered int64) (p *plan.Plan, last bool, err error) {
	if p, err = s.rowPlan(src, ErrNotPaginated); err != nil {
		return nil, false, err
	}
	if stmt := int64(p.Sel.Limit); stmt > 0 {
		remaining := stmt - delivered
		if remaining <= 0 {
			return nil, true, nil
		}
		if last = remaining <= int64(limit); last {
			limit = int(remaining)
		}
	}
	if resume {
		p.ResumeAfter(afterKey)
	}
	p.Sel.Limit = limit
	return p, last, nil
}

// StreamSelect plans a non-aggregate SELECT for a row stream;
// ErrNotStreamable for any other statement.
func (s *Session) StreamSelect(src string) (*plan.Plan, error) {
	return s.rowPlan(src, ErrNotStreamable)
}

func (s *Session) runExplain(st *ExplainStmt) (*Result, error) {
	p, err := plan.Build(st.Sel.logical())
	if err != nil {
		return nil, err
	}
	return &Result{Plan: p.Explain()}, nil
}

func (s *Session) runInsert(st *InsertStmt) (*Result, error) {
	row := store.MapRow(st.Key, 0, st.Columns)
	if err := s.DB.PutBatchCtx(s.ctx(), st.Table, st.Partition, []store.Row{row}, s.CL); err != nil {
		return nil, err
	}
	return &Result{Applied: true}, nil
}

func (s *Session) runDescribe(st *DescribeStmt) (*Result, error) {
	if st.Table == "" {
		return &Result{Tables: s.DB.Tables()}, nil
	}
	if !s.DB.HasTable(st.Table) {
		return nil, fmt.Errorf("cql: no such table %q", st.Table)
	}
	// Schema-on-read: sample partitions, cluster-wide, to report observed
	// columns.
	cols := map[string]bool{}
	pkeys, err := s.DB.PartitionKeys(s.ctx(), st.Table)
	if err != nil {
		return nil, err
	}
	if len(pkeys) > 8 {
		pkeys = pkeys[:8]
	}
	for _, pk := range pkeys {
		rows, err := s.DB.GetCtx(s.ctx(), st.Table, pk, store.Range{}, store.One)
		if err != nil {
			return nil, err
		}
		for i, r := range rows {
			if i >= 64 {
				break
			}
			for _, c := range r.Cols() {
				cols[store.ColumnName(c.ID)] = true
			}
		}
	}
	out := make([]string, 0, len(cols))
	for c := range cols {
		out = append(out, c)
	}
	sort.Strings(out)
	return &Result{Schema: out}, nil
}
