package persist

import (
	"cmp"
	"slices"
	"strings"
)

// Iterator streams rows in clustering-key order. It is the persistence
// layer's view of store.RowIter (the two are aliased); iterators are not
// safe for concurrent use.
type Iterator interface {
	// Next returns the next row. ok == false means the scan is exhausted
	// or failed; check Err afterwards.
	Next() (Row, bool)
	// Err reports the first error encountered, or nil.
	Err() error
	// Close releases the iterator. It is idempotent.
	Close() error
}

// Newer reports whether row a wins over row b, another version of its
// clustering key, under last-write-wins: the larger WriteTS wins and, on
// equal WriteTS, the row whose cells are greater, compared as (column
// name, value) pairs in name order, a proper prefix losing (Cassandra's
// rule). The order is total over distinct versions, so every replica and
// every merge keeps one winner whatever order the versions reach it in.
// It compares names, never dictionary IDs: each process numbers names in
// the order it meets them. It is the one comparison of two versions.
func Newer(a, b Row) bool {
	if a.WriteTS != b.WriteTS {
		return a.WriteTS > b.WriteTS
	}
	return compareCells(a.cols, b.cols) > 0
}

// compareCells orders two rows' cells as (name, value) pairs in name
// order, a proper prefix first.
func compareCells(a, b []Col) int {
	if slices.Equal(a, b) {
		return 0 // within one process an ID names one column: a copy, the usual tie
	}
	var bufA, bufB [16]Col
	x, y := byName(a, bufA[:0]), byName(b, bufB[:0])
	for i := range min(len(x), len(y)) {
		if c := strings.Compare(ColumnName(x[i].ID), ColumnName(y[i].ID)); c != 0 {
			return c
		}
		if c := strings.Compare(x[i].Value, y[i].Value); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(x), len(y))
}

// byName appends cols to buf sorted by column name.
func byName(cols, buf []Col) []Col {
	buf = append(buf, cols...)
	slices.SortFunc(buf, func(p, q Col) int { return strings.Compare(ColumnName(p.ID), ColumnName(q.ID)) })
	return buf
}

// cursor is one sorted input of the merge, read a row at a time: a run of
// rows, or the current batch of a batch scan — a segment's that decodes
// every cell into blocks of its own — so a row stays valid after the scan
// moves on. It is the Iterator Segment.ScanPruned and Rows return.
type cursor struct {
	run []Row         // a run: the rows still to read
	src BatchIterator // a batch scan; nil for a run
	b   *Batch        // src's current batch
	pos int           // the next row of b
}

// Rows streams the rows of it's unprojected batches, each valid while held
// where the batches own their cells and strings: an owned segment scan, a
// merge, a remote shard's stream. It takes ownership of it.
func Rows(it BatchIterator) Iterator { return &cursor{src: it} }

// openCursor opens the segment's rows within rg, every cell decoded, as a
// merge input; cfg's projection and selection are ignored.
func (s *Segment) openCursor(rg Range, cfg ScanConfig) (*cursor, error) {
	cfg.Project, cfg.Select = nil, nil
	sc, err := ChainBatches(rg, true, []*Segment{s}, []ScanConfig{cfg})
	if err != nil {
		return nil, err
	}
	return &cursor{src: sc}, nil
}

func (c *cursor) Next() (Row, bool) {
	if c.src == nil {
		if len(c.run) == 0 {
			return Row{}, false
		}
		r := c.run[0]
		c.run = c.run[1:]
		return r, true
	}
	if c.b == nil || c.pos >= c.b.Len() {
		b, ok := c.src.Next()
		if !ok {
			return Row{}, false
		}
		c.b, c.pos = b, 0
	}
	c.pos++
	return c.b.Row(c.pos - 1), true
}

func (c *cursor) Err() error {
	if c.src == nil {
		return nil
	}
	return c.src.Err()
}

func (c *cursor) Close() error {
	c.run, c.b, c.pos = nil, nil, 0
	if c.src == nil {
		return nil
	}
	return c.src.Close()
}

// merger is the last-write-wins k-way merge, the only one: a binary
// min-heap of cursors by head key. Of the heads that share the smallest
// key it emits the one Newer ranks first and drops the others, so no
// input's place in the list decides a winner. Advancing costs O(log k)
// key comparisons for k cursors.
type merger struct {
	curs  []*cursor
	heads []Row   // each cursor's current row, valid while it is on the heap; Row{} off it
	heap  []int32 // the cursors with a head
	stale func(input int, win Row)
	err   error
}

// Merge streams the last-write-wins merge of segs, each scanned within rg
// under its cfg with every cell decoded (a tie is decided on all of them),
// and of runs, sorted runs of rows, as batches of the winners under
// project, of which sel keeps its matches: a version it rejects still
// shadows an older one. An unprojected batch's rows stay valid while held.
func Merge(rg Range, segs []*Segment, cfgs []ScanConfig, runs [][]Row, project []uint32, sel *Match) (BatchIterator, error) {
	it, err := MergeRows(rg, segs, cfgs, runs)
	if err != nil {
		return nil, err
	}
	return newRowBatcher(it, project, sel), nil
}

// MergeRows is Merge's row stream, which compaction writes out as it is;
// each row stays valid while held. One input is returned as it is.
func MergeRows(rg Range, segs []*Segment, cfgs []ScanConfig, runs [][]Row) (Iterator, error) {
	curs := make([]*cursor, 0, len(segs)+len(runs))
	for i, seg := range segs {
		c, err := seg.openCursor(rg, cfgs[i])
		if err != nil {
			for _, c := range curs {
				c.Close()
			}
			return nil, err
		}
		curs = append(curs, c)
	}
	for _, run := range runs {
		curs = append(curs, &cursor{run: run})
	}
	return mergeCursors(curs), nil
}

// MergeBatches streams the last-write-wins merge of srcs — unprojected
// batch scans of unique keys whose batches own their cells: an owned
// segment scan, a merge, a remote shard's stream — as batches of the
// winners under project, of which sel keeps the matches. With stale set it
// reports, for each winner, every input that lacked its key or held a
// version Newer ranks below it, before any input is read past the key. It
// takes ownership of srcs; one unprojected, unselected input is returned
// as it is.
func MergeBatches(srcs []BatchIterator, project []uint32, sel *Match, stale func(input int, win Row)) BatchIterator {
	if len(srcs) == 1 && project == nil && sel == nil {
		return srcs[0]
	}
	curs := make([]*cursor, len(srcs))
	for i, src := range srcs {
		curs[i] = &cursor{src: src}
	}
	m := newMerger(curs)
	m.stale = stale
	return newRowBatcher(m, project, sel)
}

// MergeIters is Merge's row stream over iterators that Segment.ScanPruned
// returned, for a caller that opens its own scans. It takes ownership of
// them. Bench adapter: 1a-scale deletes it.
func MergeIters(its []Iterator) Iterator {
	curs := make([]*cursor, len(its))
	for i, it := range its {
		curs[i] = it.(*cursor)
	}
	return mergeCursors(curs)
}

// MergeRuns is the merge collected: the last-write-wins union of sorted
// runs of rows as one sorted run.
func MergeRuns(runs ...[]Row) []Row {
	curs := make([]*cursor, len(runs))
	total := 0
	for i, run := range runs {
		curs[i] = &cursor{run: run}
		total += len(run)
	}
	m := newMerger(curs)
	out := make([]Row, 0, total)
	for r, ok := m.Next(); ok; r, ok = m.Next() {
		out = append(out, r)
	}
	return out
}

// mergeCursors takes ownership of curs. A single cursor's keys are unique:
// there is nothing to reconcile.
func mergeCursors(curs []*cursor) Iterator {
	if len(curs) == 1 {
		return curs[0]
	}
	return newMerger(curs)
}

func newMerger(curs []*cursor) *merger {
	m := &merger{curs: curs, heads: make([]Row, len(curs)), heap: make([]int32, 0, len(curs))}
	for i := range curs {
		if m.advance(int32(i)) {
			m.heap = append(m.heap, int32(i))
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// advance reads cursor i's next row into its head; false once the cursor
// is exhausted or failed.
func (m *merger) advance(i int32) bool {
	r, ok := m.curs[i].Next()
	m.heads[i] = r
	if !ok {
		if err := m.curs[i].Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	return ok
}

func (m *merger) less(a, b int32) bool { return m.heads[a].Key < m.heads[b].Key }

// down restores heap order below position i.
func (m *merger) down(i int) {
	h := m.heap
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && m.less(h[l], h[least]) {
			least = l
		}
		if r < len(h) && m.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// pop returns the smallest head and moves its cursor on.
func (m *merger) pop() Row {
	i := m.heap[0]
	r := m.heads[i]
	if !m.advance(i) {
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.heap = m.heap[:n]
	}
	m.down(0)
	return r
}

func (m *merger) Next() (Row, bool) {
	if m.err != nil || len(m.heap) == 0 {
		return Row{}, false
	}
	if m.stale != nil {
		m.report()
	}
	win := m.pop()
	for len(m.heap) > 0 && m.heads[m.heap[0]].Key == win.Key {
		if r := m.pop(); Newer(r, win) {
			win = r
		}
	}
	return win, m.err == nil
}

// report tells stale of every input that lacks the smallest head's key or
// holds a version of it Newer ranks below the winner, while every version
// of the key is still a head. An input that repeats a key is judged by its
// first version: a reporting merge's inputs are scans.
func (m *merger) report() {
	win := m.heads[m.heap[0]]
	for _, r := range m.heads {
		if r.Key == win.Key && Newer(r, win) {
			win = r
		}
	}
	for i, r := range m.heads {
		if r.Key != win.Key || Newer(win, r) {
			m.stale(i, win)
		}
	}
}

func (m *merger) Err() error { return m.err }

func (m *merger) Close() error {
	var first error
	for _, c := range m.curs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.curs, m.heads, m.heap = nil, nil, nil
	return first
}
