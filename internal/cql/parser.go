package cql

import (
	"fmt"
	"strconv"
	"strings"

	"hpclog/internal/model"
	"hpclog/internal/plan"
)

// Statement is a parsed CQL statement.
type Statement interface{ stmt() }

// SelectStmt reads rows (or aggregates) from one partition. The WHERE
// clause parses into a plan.Expr predicate; the mandatory partition
// equality is extracted out of it at parse time.
type SelectStmt struct {
	Columns   []string // plain projection; nil means * (or aggregates)
	Aggs      []plan.AggSpec
	GroupBy   []string
	Table     string
	Partition string
	// Where is the residual predicate (partition removed); nil = none.
	Where plan.Expr
	Limit int // 0 = no limit
}

func (*SelectStmt) stmt() {}

// ExplainStmt renders the physical plan of a SELECT without running it.
type ExplainStmt struct {
	Sel *SelectStmt
}

func (*ExplainStmt) stmt() {}

// InsertStmt writes one row.
type InsertStmt struct {
	Table     string
	Partition string
	Key       string
	Columns   map[string]string
}

func (*InsertStmt) stmt() {}

// DescribeStmt introspects the schema.
type DescribeStmt struct {
	Table string // empty = list tables
}

func (*DescribeStmt) stmt() {}

// parser consumes a token stream.
type parser struct {
	tokens []token
	pos    int
}

// Parse parses one CQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	var s Statement
	switch {
	case p.peekKeyword("SELECT"):
		s, err = p.parseSelect()
	case p.peekKeyword("EXPLAIN"):
		p.pos++
		if !p.peekKeyword("SELECT") {
			return nil, fmt.Errorf("cql: EXPLAIN supports only SELECT, got %s", p.peek())
		}
		var sel *SelectStmt
		sel, err = p.parseSelect()
		s = &ExplainStmt{Sel: sel}
	case p.peekKeyword("INSERT"):
		s, err = p.parseInsert()
	case p.peekKeyword("DESCRIBE"):
		s, err = p.parseDescribe()
	default:
		return nil, fmt.Errorf("cql: expected SELECT, EXPLAIN, INSERT, or DESCRIBE, got %s", p.peek())
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.pos++
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cql: trailing input at %s", p.peek())
	}
	return s, nil
}

func (p *parser) peek() token { return p.tokens[p.pos] }

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peekKeyword(kw) {
		return fmt.Errorf("cql: expected %s, got %s", kw, p.peek())
	}
	p.pos++
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	t := p.peek()
	if t.kind != tokSymbol || t.text != sym {
		return fmt.Errorf("cql: expected %q, got %s", sym, t)
	}
	p.pos++
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("cql: expected identifier, got %s", t)
	}
	p.pos++
	return t.text, nil
}

// ErrRetiredTable refuses a statement on event_by_location, the
// per-component event table of the paper's Fig 1: events are stored once,
// in event_by_time, and a store written before keeps that table's
// partitions unread.
var ErrRetiredTable = fmt.Errorf("cql: table %s is retired: every event is stored once, in %s; "+
	"read a component's events with the events op and a context source, or select its rows of %s by source",
	model.TableEventByLoc, model.TableEventByTime, model.TableEventByTime)

// table reads a table name, refusing the retired one.
func (p *parser) table() (string, error) {
	name, err := p.ident()
	if err == nil && strings.EqualFold(name, model.TableEventByLoc) {
		return "", ErrRetiredTable
	}
	return name, err
}

func (p *parser) stringLit() (string, error) {
	t := p.peek()
	if t.kind != tokString {
		return "", fmt.Errorf("cql: expected string literal, got %s", t)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.pos++ // SELECT
	s := &SelectStmt{}
	if p.peek().kind == tokSymbol && p.peek().text == "*" {
		p.pos++
	} else {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if fn, ok := plan.ParseAggFn(name); ok && p.peek().kind == tokSymbol && p.peek().text == "(" {
				p.pos++ // (
				col := ""
				if p.peek().kind == tokSymbol && p.peek().text == "*" {
					p.pos++
				} else {
					if col, err = p.ident(); err != nil {
						return nil, err
					}
					col = strings.ToLower(col)
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				spec, err := plan.NewAggSpec(fn, col)
				if err != nil {
					return nil, fmt.Errorf("cql: %w", err)
				}
				s.Aggs = append(s.Aggs, spec)
			} else {
				// Column names are lowercase throughout the data model
				// (INSERT lowercases on write); fold here so projections,
				// predicates, and GROUP BY agree.
				s.Columns = append(s.Columns, strings.ToLower(name))
			}
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.table()
	if err != nil {
		return nil, err
	}
	s.Table = table
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, fmt.Errorf("%w (full-table scans are not supported; query one partition)", err)
	}
	where, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	s.Partition, s.Where, err = extractPartition(where)
	if err != nil {
		return nil, err
	}
	if p.peekKeyword("GROUP") {
		p.pos++
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, strings.ToLower(col))
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	// Aggregate/GROUP BY consistency (aggregates present, selected
	// columns grouped) is validated once, in plan.Build — every execution
	// and EXPLAIN path goes through it.
	if p.peekKeyword("LIMIT") {
		p.pos++
		t := p.peek()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("cql: expected number after LIMIT, got %s", t)
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cql: bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

// --- predicate grammar ---
//
//	or      := and (OR and)*
//	and     := unary (AND unary)*
//	unary   := NOT unary | primary
//	primary := '(' or ')' | predicate
//	predicate := ident cmpop literal
//	           | ident IN '(' literal (',' literal)* ')'
//	           | ident LIKE literal
//	literal := 'string' | number | -number

func (p *parser) parseOr() (plan.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.peekKeyword("OR") {
		return left, nil
	}
	kids := []plan.Expr{left}
	for p.peekKeyword("OR") {
		p.pos++
		k, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return &plan.Or{Kids: kids}, nil
}

func (p *parser) parseAnd() (plan.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if !p.peekKeyword("AND") {
		return left, nil
	}
	kids := []plan.Expr{left}
	for p.peekKeyword("AND") {
		p.pos++
		k, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return &plan.And{Kids: kids}, nil
}

func (p *parser) parseUnary() (plan.Expr, error) {
	if p.peekKeyword("NOT") {
		p.pos++
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &plan.Not{Kid: kid}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (plan.Expr, error) {
	if p.peek().kind == tokSymbol && p.peek().text == "(" {
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, fmt.Errorf("cql: expected a predicate, got %s", p.peek())
	}
	col := plan.NewColRef(strings.ToLower(name))
	switch {
	case p.peekKeyword("IN"):
		p.pos++
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var vals []string
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.peek().kind == tokSymbol && p.peek().text == "," {
				p.pos++
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return plan.NewIn(col, vals), nil
	case p.peekKeyword("LIKE"):
		p.pos++
		pat, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		return plan.NewLike(col, pat), nil
	}
	op := p.peek()
	if op.kind != tokSymbol {
		return nil, fmt.Errorf("cql: expected comparison after %q, got %s", name, op)
	}
	var cmpOp plan.CmpOp
	switch op.text {
	case "=":
		cmpOp = plan.OpEq
	case "!=":
		cmpOp = plan.OpNe
	case "<":
		cmpOp = plan.OpLt
	case "<=":
		cmpOp = plan.OpLe
	case ">":
		cmpOp = plan.OpGt
	case ">=":
		cmpOp = plan.OpGe
	default:
		return nil, fmt.Errorf("cql: unsupported comparison %q", op.text)
	}
	p.pos++
	lit, err := p.literal()
	if err != nil {
		return nil, err
	}
	return plan.NewCmp(col, cmpOp, lit), nil
}

// literal accepts a quoted string, a number, or a negated number.
func (p *parser) literal() (string, error) {
	t := p.peek()
	switch {
	case t.kind == tokString:
		p.pos++
		return t.text, nil
	case t.kind == tokNumber:
		p.pos++
		return t.text, nil
	case t.kind == tokSymbol && t.text == "-":
		p.pos++
		n := p.peek()
		if n.kind != tokNumber {
			return "", fmt.Errorf("cql: expected number after '-', got %s", n)
		}
		p.pos++
		return "-" + n.text, nil
	}
	return "", fmt.Errorf("cql: expected literal, got %s", t)
}

// extractPartition pulls the mandatory top-level `partition = '...'`
// equality out of the WHERE predicate and returns the residual. The
// partition column is the hash key — it routes the query — so it may
// appear exactly once, as an equality, AND-ed at the top level.
func extractPartition(e plan.Expr) (string, plan.Expr, error) {
	conjuncts := plan.Conjuncts(e)
	partition, found := "", false
	residual := conjuncts[:0]
	for _, c := range conjuncts {
		cmp, ok := c.(*plan.Cmp)
		if !ok || cmp.Col.Name != "partition" {
			if refersToPartition(c) {
				return "", nil, fmt.Errorf("cql: partition may only appear as a top-level equality (it routes the query)")
			}
			residual = append(residual, c)
			continue
		}
		if cmp.Op != plan.OpEq {
			return "", nil, fmt.Errorf("cql: partition supports only equality, got %s", cmp.Op)
		}
		if found {
			return "", nil, fmt.Errorf("cql: partition constrained twice")
		}
		partition, found = cmp.Lit, true
	}
	if !found {
		return "", nil, fmt.Errorf("cql: WHERE must constrain partition (hash key)")
	}
	return partition, plan.FromConjuncts(residual), nil
}

// refersToPartition walks an expression for nested partition references.
func refersToPartition(e plan.Expr) bool {
	switch x := e.(type) {
	case *plan.Cmp:
		return x.Col.Name == "partition"
	case *plan.In:
		return x.Col.Name == "partition"
	case *plan.Like:
		return x.Col.Name == "partition"
	case *plan.And:
		for _, k := range x.Kids {
			if refersToPartition(k) {
				return true
			}
		}
	case *plan.Or:
		for _, k := range x.Kids {
			if refersToPartition(k) {
				return true
			}
		}
	case *plan.Not:
		return refersToPartition(x.Kid)
	}
	return false
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.pos++ // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.table()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var names []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		names = append(names, strings.ToLower(name))
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var values []string
	for {
		v, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		values = append(values, v)
		if p.peek().kind == tokSymbol && p.peek().text == "," {
			p.pos++
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if len(names) != len(values) {
		return nil, fmt.Errorf("cql: %d columns but %d values", len(names), len(values))
	}
	st := &InsertStmt{Table: table, Columns: make(map[string]string)}
	for i, name := range names {
		switch name {
		case "partition":
			st.Partition = values[i]
		case "key":
			st.Key = values[i]
		default:
			st.Columns[name] = values[i]
		}
	}
	if st.Partition == "" || st.Key == "" {
		return nil, fmt.Errorf("cql: INSERT requires partition and key columns")
	}
	return st, nil
}

func (p *parser) parseDescribe() (*DescribeStmt, error) {
	p.pos++ // DESCRIBE
	switch {
	case p.peekKeyword("TABLES"):
		p.pos++
		return &DescribeStmt{}, nil
	case p.peekKeyword("TABLE"):
		p.pos++
		table, err := p.table()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: table}, nil
	default:
		return nil, fmt.Errorf("cql: expected TABLES or TABLE after DESCRIBE, got %s", p.peek())
	}
}
