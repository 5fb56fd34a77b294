package plan

import (
	"fmt"
	"slices"
	"strings"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Plan is a compiled physical plan: Scan → Filter → Project|Aggregate →
// Limit. Build performs the logical→physical rewrites — clustering-range
// extraction from top-level key comparisons, residual-filter
// construction, projection resolution, and compilation of the prunable
// conjuncts into a storage-level block pruner.
type Plan struct {
	Sel *Select
	// Range is the pushed-down clustering-key range (from top-level key
	// comparisons; identical semantics to evaluating them row-wise).
	Range store.Range
	// Filter is the residual row predicate; nil = none.
	Filter Expr
	// Pruner skips segment blocks that provably contain no matching row;
	// nil when no conjunct is prunable.
	Pruner persist.Pruner

	// groups, set by the group rule, lets an aggregate take whole blocks
	// from their group lists (see groupRule.take).
	groups *groupRule

	projRefs  []projRef // resolved projection (nil = all columns)
	outCols   []projRef // the known projected columns by name, each once (nil = all columns)
	pruneDesc []string  // explain text of the prunable conjuncts
}

type projRef struct {
	name  string
	id    uint32
	known bool
}

// Build compiles a logical Select into a physical Plan.
func Build(sel *Select) (*Plan, error) {
	if sel.Table == "" || sel.Partition == "" {
		return nil, fmt.Errorf("plan: SELECT requires a table and a partition constraint")
	}
	if len(sel.Aggs) == 0 && len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("plan: GROUP BY requires aggregates in the select list")
	}
	if len(sel.Aggs) > 0 {
		for _, c := range sel.Columns {
			found := false
			for _, g := range sel.GroupBy {
				if c == g {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("plan: column %q must appear in GROUP BY to be selected alongside aggregates", c)
			}
		}
	}
	p := &Plan{Sel: sel}

	// Range extraction: a top-level key comparison is enforced exactly by
	// the scan range (the bound transformations below mirror Cmp.Eval's
	// bytewise semantics), so it leaves the residual filter.
	residual := make([]Expr, 0, 4)
	for _, c := range Conjuncts(sel.Where) {
		cmp, ok := c.(*Cmp)
		if !ok || !cmp.Col.IsKey {
			residual = append(residual, c)
			continue
		}
		lit := cmp.KeyLiteral()
		switch cmp.Op {
		case OpEq:
			p.tightenFrom(lit)
			p.tightenTo(lit + "\x00")
		case OpGe:
			p.tightenFrom(lit)
		case OpGt:
			p.tightenFrom(lit + "\x00")
		case OpLt:
			p.tightenTo(lit)
		case OpLe:
			p.tightenTo(lit + "\x00")
		default: // key != 'x' stays a row predicate
			residual = append(residual, c)
			continue
		}
	}
	p.Filter = FromConjuncts(residual)

	// Storage pushdown: compile what we can of the conjuncts. Every
	// conjunct must hold for a row to pass, so a block where ANY compiled
	// conjunct proves "no row matches" is skippable.
	var preds []blockPred
	for _, c := range residual {
		if bp := compileBlockPred(c); bp != nil {
			preds = append(preds, bp)
			p.pruneDesc = append(p.pruneDesc, c.String())
		}
	}
	if len(preds) > 0 {
		p.Pruner = conjPruner(preds)
	}
	p.groups = groupRuleOf(sel, p.Filter)

	// Projection: resolved to dictionary IDs once (lookup only — see
	// ColRef; a never-written column is empty everywhere). Projection
	// names are plain columns — the clustering key is always present as
	// the row key, not a cell.
	if len(sel.Aggs) == 0 && sel.Columns != nil {
		p.projRefs = make([]projRef, len(sel.Columns))
		for i, c := range sel.Columns {
			id, ok := persist.DefaultDict().Lookup(c)
			p.projRefs[i] = projRef{name: c, id: id, known: ok}
			if ok {
				p.outCols = append(p.outCols, p.projRefs[i])
			}
		}
		slices.SortFunc(p.outCols, func(a, b projRef) int { return strings.Compare(a.name, b.name) })
		p.outCols = slices.CompactFunc(p.outCols, func(a, b projRef) bool { return a.name == b.name })
		if p.outCols == nil {
			p.outCols = []projRef{}
		}
	}
	return p, nil
}

// groupRule is the planner rule for counts by one column: SELECT c,
// COUNT(*) [, SUM(amount)] … GROUP BY c, whose only predicates are the
// partition and a key range. Its scan tasks take a block inside their
// slice from the block's group list of c (persist.BlockStats.Groups) or
// the zone map of its one value of c, in place of reading it.
type groupRule struct {
	col, count uint32 // dictionary IDs of c and of the count column
	sum        bool   // the aggregates sum the count column
}

// groupRuleOf returns the group rule of sel, whose residual filter is
// filter, or nil where the rule does not apply.
func groupRuleOf(sel *Select, filter Expr) *groupRule {
	count, ok := persist.DefaultDict().Lookup(persist.CountColumn)
	if !ok || filter != nil || len(sel.GroupBy) != 1 {
		return nil
	}
	col := NewColRef(sel.GroupBy[0])
	if !col.Known || col.IsKey {
		return nil
	}
	rule := &groupRule{col: col.ID, count: count}
	for _, a := range sel.Aggs {
		if a.Col != "" && (a.Fn != AggSum || !a.Known || a.ID != count) {
			return nil
		}
		rule.sum = rule.sum || a.Col != ""
	}
	return rule
}

func (p *Plan) tightenFrom(from string) {
	if p.Range.From == "" || from > p.Range.From {
		p.Range.From = from
	}
}

func (p *Plan) tightenTo(to string) {
	if p.Range.To == "" || to < p.Range.To {
		p.Range.To = to
	}
}

// Field is one column of a result row: its name and value.
type Field struct{ Name, Value string }

// Fields appends to dst the columns row i of b holds under the plan's
// projection, sorted by name as the wire writes them: every projected
// column with a value or, without a projection, every cell of the row —
// nil when it has none. The values alias b.
func (p *Plan) Fields(dst []Field, b *store.Batch, i int) []Field {
	r := b.Row(i)
	if p.outCols == nil {
		cols := r.Cols()
		if len(cols) == 0 {
			return nil
		}
		for _, c := range cols {
			f := Field{Name: store.ColumnName(c.ID), Value: c.Value}
			j := len(dst)
			for ; j > 0 && dst[j-1].Name > f.Name; j-- {
			}
			if j > 0 && dst[j-1].Name == f.Name {
				dst[j-1] = f // a duplicated cell: the later one wins, as in a map
				continue
			}
			dst = slices.Insert(dst, j, f)
		}
		return dst
	}
	if dst == nil {
		dst = []Field{}
	}
	for _, c := range p.outCols {
		if v := r.ColID(c.id); v != "" {
			dst = append(dst, Field{Name: c.name, Value: v})
		}
	}
	return dst
}

// scanColumns is the projection a scan of the plan asks of the store:
// the columns its filter reads plus those it returns — aggregated and
// grouped, or projected; nil (every column) for SELECT * or a filter this
// function cannot see into.
func (p *Plan) scanColumns() []uint32 {
	if len(p.Sel.Aggs) == 0 && p.outCols == nil {
		return nil
	}
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
	for _, c := range p.outCols {
		cols = append(cols, c.id)
	}
	return cols
}

// Explain renders the operator tree, top operator first.
func (p *Plan) Explain() []string {
	var ops []string
	if p.Sel.Limit > 0 {
		ops = append(ops, fmt.Sprintf("Limit(%d)", p.Sel.Limit))
	}
	if len(p.Sel.Aggs) > 0 {
		labels := make([]string, len(p.Sel.Aggs))
		for i, a := range p.Sel.Aggs {
			labels[i] = a.Label()
		}
		agg := "Aggregate(" + strings.Join(labels, ", ")
		if len(p.Sel.GroupBy) > 0 {
			agg += " GROUP BY " + strings.Join(p.Sel.GroupBy, ", ")
		}
		ops = append(ops, agg+")")
	} else if p.projRefs != nil {
		names := make([]string, len(p.projRefs))
		for i, pr := range p.projRefs {
			names[i] = pr.name
		}
		ops = append(ops, "Project("+strings.Join(names, ", ")+")")
	} else {
		ops = append(ops, "Project(*)")
	}
	if p.Filter != nil {
		ops = append(ops, "Filter("+p.Filter.String()+")")
	}
	scan := fmt.Sprintf("Scan(%s[%s]", p.Sel.Table, quoteLit(p.Sel.Partition))
	if p.Range.From != "" || p.Range.To != "" {
		scan += fmt.Sprintf(" keys[%q..%q)", p.Range.From, p.Range.To)
	}
	if len(p.pruneDesc) > 0 {
		scan += " prune{" + strings.Join(p.pruneDesc, "; ") + "}"
	}
	if p.groups != nil {
		scan += " take{groups " + p.Sel.GroupBy[0] + "}"
	}
	ops = append(ops, scan+")")

	out := make([]string, len(ops))
	for i, op := range ops {
		switch {
		case i == 0:
			out[i] = op
		default:
			out[i] = strings.Repeat("   ", i-1) + "└─ " + op
		}
	}
	return out
}
