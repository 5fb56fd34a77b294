// Package plan implements the CQL query planner — the layer between the
// query language and the scan pipeline:
//
//   - an expression engine: a typed predicate AST (comparisons, AND/OR/
//     NOT, IN, LIKE) that evaluates directly against the compact
//     []persist.Col row form using pre-interned column IDs — no map
//     materialization and no allocation per row;
//   - logical→physical planning: a SELECT (arbitrary WHERE predicates,
//     aggregates, GROUP BY, LIMIT) compiles into a
//     Scan→Filter→Project/Aggregate→Limit operator tree that executes on
//     the compute scan pool (StreamScan for row results, ScanFold for
//     aggregations);
//   - storage pushdown: the plan's top-level conjuncts compile into a
//     persist.Pruner that skips segment blocks via zone maps and Bloom
//     filters before they are read off disk.
package plan

import (
	"strings"
	"time"

	"hpclog/internal/store"
	"hpclog/internal/store/persist"
)

// Expr is a boolean predicate over one row. Evaluation is two-valued: a
// comparison (or IN/LIKE) on a column whose value is absent or empty is
// simply false, and NOT inverts that — so NOT(source = 'x') matches rows
// without a source. Implementations are immutable after construction and
// safe for concurrent use; Eval performs no allocation.
type Expr interface {
	Eval(r store.Row) bool
	// String renders the predicate in CQL syntax (used by EXPLAIN).
	String() string
}

// colPred is a predicate on the value of one column: Eval of a row is
// matchValue of its cell ("" when absent), unless the column is the key.
type colPred interface {
	Expr
	column() ColRef
	matchValue(v string) bool
}

// ColRef names a column in a predicate, with the dictionary ID resolved
// once at parse time. The clustering key is addressed as the pseudo-column
// "key" and evaluates against Row.Key.
//
// Resolution is a LOOKUP, never an intern: query text is untrusted
// (POST /v1/cql), and the process-wide dictionary is append-only —
// interning attacker-chosen names would grow it without bound. A name no
// write has ever interned cannot appear in any stored row, so Known ==
// false simply means the column is absent everywhere (predicates on it
// are false, projections of it empty), which is exactly what a fresh
// lookup at execution would conclude.
type ColRef struct {
	Name  string
	ID    uint32
	IsKey bool
	// Known is false when the name has never been interned by a write.
	Known bool
}

// NewColRef builds a ColRef, resolving (not interning) the name. The
// name "key" (case-insensitive) selects the clustering key.
func NewColRef(name string) ColRef {
	if strings.EqualFold(name, "key") {
		return ColRef{Name: "key", IsKey: true}
	}
	id, ok := persist.DefaultDict().Lookup(name)
	return ColRef{Name: name, ID: id, Known: ok}
}

// value reads the referenced cell; "" means absent.
func (c ColRef) value(r store.Row) string {
	if c.IsKey {
		return r.Key
	}
	if !c.Known {
		return ""
	}
	return r.ColID(c.ID)
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Cmp compares a column against a literal. The comparison mode is fixed
// at construction from the literal:
//
//   - a numeric literal compares numerically; cells that do not parse as
//     numbers never match (so "amount > '5'" is a numeric predicate that
//     ignores garbage cells);
//   - any other literal compares bytewise;
//   - against the key pseudo-column, an RFC3339 literal is coerced to its
//     EncodeTS form first, so "key >= '2017-08-23T06:00:00Z'" means what
//     it says on time-clustered tables.
type Cmp struct {
	Col ColRef
	Op  CmpOp
	Lit string

	num    float64 // literal's numeric value when numOK
	numOK  bool
	keyLit string // literal as compared against the clustering key
}

// NewCmp builds a comparison, classifying the literal once.
func NewCmp(col ColRef, op CmpOp, lit string) *Cmp {
	c := &Cmp{Col: col, Op: op, Lit: lit, keyLit: lit}
	c.num, c.numOK = persist.ParseNum(lit)
	if col.IsKey {
		c.keyLit = CoerceKeyLiteral(lit)
	}
	return c
}

// CoerceKeyLiteral converts an RFC3339 timestamp literal to its EncodeTS
// clustering-key form; any other literal passes through unchanged.
func CoerceKeyLiteral(lit string) string {
	if t, err := time.Parse(time.RFC3339, lit); err == nil && t.Unix() >= 0 {
		return store.EncodeTS(t.Unix())
	}
	return lit
}

// KeyLiteral returns the literal as compared against the clustering key
// (after timestamp coercion). The planner uses it to turn top-level key
// comparisons into scan ranges with semantics identical to Eval's.
func (c *Cmp) KeyLiteral() string { return c.keyLit }

func cmpStrings(v, lit string, op CmpOp) bool {
	switch op {
	case OpEq:
		return v == lit
	case OpNe:
		return v != lit
	case OpLt:
		return v < lit
	case OpLe:
		return v <= lit
	case OpGt:
		return v > lit
	case OpGe:
		return v >= lit
	}
	return false
}

func cmpNums(v, lit float64, op CmpOp) bool {
	switch op {
	case OpEq:
		return v == lit
	case OpNe:
		return v != lit
	case OpLt:
		return v < lit
	case OpLe:
		return v <= lit
	case OpGt:
		return v > lit
	case OpGe:
		return v >= lit
	}
	return false
}

// Eval implements Expr.
func (c *Cmp) Eval(r store.Row) bool {
	if c.Col.IsKey {
		return cmpStrings(r.Key, c.keyLit, c.Op)
	}
	return c.matchValue(c.Col.value(r))
}

func (c *Cmp) column() ColRef { return c.Col }

func (c *Cmp) matchValue(v string) bool {
	if v == "" {
		return false
	}
	if c.numOK {
		n, ok := persist.ParseNum(v)
		if !ok {
			return false
		}
		return cmpNums(n, c.num, c.Op)
	}
	return cmpStrings(v, c.Lit, c.Op)
}

func (c *Cmp) String() string {
	return c.Col.Name + " " + c.Op.String() + " " + quoteLit(c.Lit)
}

// And is an n-ary conjunction.
type And struct{ Kids []Expr }

// Eval implements Expr.
func (a *And) Eval(r store.Row) bool {
	for _, k := range a.Kids {
		if !k.Eval(r) {
			return false
		}
	}
	return true
}

func (a *And) String() string { return joinKids(a.Kids, " AND ") }

// Or is an n-ary disjunction.
type Or struct{ Kids []Expr }

// Eval implements Expr.
func (o *Or) Eval(r store.Row) bool {
	for _, k := range o.Kids {
		if k.Eval(r) {
			return true
		}
	}
	return false
}

func (o *Or) String() string { return joinKids(o.Kids, " OR ") }

// Not negates its child.
type Not struct{ Kid Expr }

// Eval implements Expr.
func (n *Not) Eval(r store.Row) bool { return !n.Kid.Eval(r) }

func (n *Not) String() string { return "NOT (" + n.Kid.String() + ")" }

// In matches a column against a literal set — semantically the OR of
// equality comparisons (each literal keeps its own numeric/string mode).
type In struct {
	Col  ColRef
	Vals []string

	nums    []float64
	numOK   []bool
	keyVals []string
}

// NewIn builds an IN predicate, classifying each literal once.
func NewIn(col ColRef, vals []string) *In {
	in := &In{Col: col, Vals: vals,
		nums: make([]float64, len(vals)), numOK: make([]bool, len(vals))}
	for i, v := range vals {
		in.nums[i], in.numOK[i] = persist.ParseNum(v)
	}
	if col.IsKey {
		in.keyVals = make([]string, len(vals))
		for i, v := range vals {
			in.keyVals[i] = CoerceKeyLiteral(v)
		}
	}
	return in
}

// Eval implements Expr.
func (in *In) Eval(r store.Row) bool {
	if in.Col.IsKey {
		for _, v := range in.keyVals {
			if r.Key == v {
				return true
			}
		}
		return false
	}
	return in.matchValue(in.Col.value(r))
}

func (in *In) column() ColRef { return in.Col }

func (in *In) matchValue(v string) bool {
	if v == "" {
		return false
	}
	n, isNum := persist.ParseNum(v)
	for i, lit := range in.Vals {
		if in.numOK[i] {
			if isNum && n == in.nums[i] {
				return true
			}
			continue
		}
		if v == lit {
			return true
		}
	}
	return false
}

func (in *In) String() string {
	var b strings.Builder
	b.WriteString(in.Col.Name)
	b.WriteString(" IN (")
	for i, v := range in.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteLit(v))
	}
	b.WriteString(")")
	return b.String()
}

// Like matches a column against a pattern where '%' matches any run of
// characters (the only metacharacter; no '_'). A pattern without '%' is
// an exact match. Segments are precompiled so evaluation is a chain of
// prefix/suffix/substring checks with no allocation.
type Like struct {
	Col     ColRef
	Pattern string

	segs       []string // literal runs between '%'s
	anchorHead bool     // pattern does not start with '%'
	anchorTail bool     // pattern does not end with '%'
}

// NewLike builds a LIKE predicate, splitting the pattern once.
func NewLike(col ColRef, pattern string) *Like {
	l := &Like{Col: col, Pattern: pattern}
	l.anchorHead = !strings.HasPrefix(pattern, "%")
	l.anchorTail = !strings.HasSuffix(pattern, "%")
	for _, seg := range strings.Split(pattern, "%") {
		if seg != "" {
			l.segs = append(l.segs, seg)
		}
	}
	return l
}

// Prefix returns the literal prefix the pattern requires, if any — the
// zone-map handle for pruning ("c2-%" prunes blocks whose source range
// excludes "c2-").
func (l *Like) Prefix() (string, bool) {
	if l.anchorHead && len(l.segs) > 0 {
		return l.segs[0], true
	}
	return "", false
}

// Exact reports whether the pattern is wildcard-free (an equality).
func (l *Like) Exact() bool {
	return l.anchorHead && l.anchorTail && len(l.segs) == 1 && l.segs[0] == l.Pattern
}

// Eval implements Expr.
func (l *Like) Eval(r store.Row) bool { return l.matchValue(l.Col.value(r)) }

func (l *Like) column() ColRef { return l.Col }

func (l *Like) matchValue(v string) bool { return v != "" && l.match(v) }

func (l *Like) match(v string) bool {
	segs := l.segs
	if len(segs) == 0 {
		// "%", "%%", ... match anything; "" matches only "" which the
		// empty-cell rule already rejected.
		return l.Pattern != ""
	}
	if l.anchorHead {
		if !strings.HasPrefix(v, segs[0]) {
			return false
		}
		v = v[len(segs[0]):]
		segs = segs[1:]
	}
	var tail string
	if l.anchorTail && len(segs) > 0 {
		tail = segs[len(segs)-1]
		segs = segs[:len(segs)-1]
	}
	for _, seg := range segs {
		i := strings.Index(v, seg)
		if i < 0 {
			return false
		}
		v = v[i+len(seg):]
	}
	if l.anchorTail {
		if l.Exact() {
			return v == "" // head anchor consumed the whole pattern
		}
		return strings.HasSuffix(v, tail)
	}
	return true
}

func (l *Like) String() string {
	return l.Col.Name + " LIKE " + quoteLit(l.Pattern)
}

// quoteLit renders a literal in CQL single-quote syntax.
func quoteLit(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func joinKids(kids []Expr, sep string) string {
	var b strings.Builder
	b.WriteString("(")
	for i, k := range kids {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(k.String())
	}
	b.WriteString(")")
	return b.String()
}

// Conjuncts flattens nested top-level ANDs into a conjunct list.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, k := range a.Kids {
			out = append(out, Conjuncts(k)...)
		}
		return out
	}
	return []Expr{e}
}

// FromConjuncts rebuilds an expression from a conjunct list (nil for an
// empty list, the bare expression for a single conjunct).
func FromConjuncts(cs []Expr) Expr {
	switch len(cs) {
	case 0:
		return nil
	case 1:
		return cs[0]
	}
	return &And{Kids: cs}
}
