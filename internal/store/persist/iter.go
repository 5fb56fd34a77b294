package persist

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

// sliceIter adapts a materialized sorted row slice to Iterator.
type sliceIter struct {
	rows []Row
	pos  int
}

// NewSliceIter wraps an already-materialized, sorted row slice in an
// Iterator.
func NewSliceIter(rows []Row) Iterator { return &sliceIter{rows: rows} }

func (it *sliceIter) Next() (Row, bool) {
	if it.pos >= len(it.rows) {
		return Row{}, false
	}
	r := it.rows[it.pos]
	it.pos++
	return r, true
}

func (it *sliceIter) Err() error   { return nil }
func (it *sliceIter) Close() error { it.pos = len(it.rows); return nil }

// headHeap is a binary min-heap of input indexes ordered by (current head
// key, index) — the index tie-break makes earlier inputs pop first on
// equal keys. The user keeps keys[i] equal to input i's current head key;
// the heap moves 4-byte indexes and compares through the flat keys array,
// so sift operations never copy Row structs and comparisons never go
// through a closure.
type headHeap struct {
	idx  []int32
	keys []string // current head key per input
}

func (h *headHeap) less(a, b int32) bool {
	ka, kb := h.keys[a], h.keys[b]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

func (h *headHeap) siftDown(i int) {
	n := len(h.idx)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.less(h.idx[l], h.idx[least]) {
			least = l
		}
		if r < n && h.less(h.idx[r], h.idx[least]) {
			least = r
		}
		if least == i {
			return
		}
		h.idx[i], h.idx[least] = h.idx[least], h.idx[i]
		i = least
	}
}

// init heapifies idx.
func (h *headHeap) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// fixMin restores heap order after the minimum input's head advanced.
func (h *headHeap) fixMin() { h.siftDown(0) }

// popMin removes the minimum input from the heap.
func (h *headHeap) popMin() {
	n := len(h.idx) - 1
	h.idx[0] = h.idx[n]
	h.idx = h.idx[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

// mergeIter lazily k-way merges sorted row iterators with last-write-wins
// reconciliation on duplicate clustering keys: among equal keys the row
// with the largest WriteTS wins, with later inputs breaking WriteTS ties.
// Inputs must therefore be ordered oldest first (disk segments by
// sequence, then in-memory segments, then the memtable).
//
// The merge is heap-based: advancing costs O(log k) comparisons for k
// inputs instead of the O(k) linear probe, which matters for compaction
// over many segments and for wide Get/Repair merges.
type mergeIter struct {
	its   []Iterator
	heads []Row // current head row per input; valid while on the heap
	heap  headHeap
	// pending is the current candidate row, not yet emitted because a
	// later duplicate with a higher WriteTS may still replace it.
	pending    Row
	hasPending bool
	err        error
	closed     bool
}

// MergeIters returns an Iterator over the last-write-wins merge of its.
// It takes ownership of the inputs: closing the merge closes them all.
func MergeIters(its []Iterator) Iterator {
	if len(its) == 1 {
		return its[0] // keys within one input are unique: nothing to reconcile
	}
	m := &mergeIter{its: its, heads: make([]Row, len(its))}
	m.heap.keys = make([]string, len(its))
	m.heap.idx = make([]int32, 0, len(its))
	for i, it := range its {
		r, ok := it.Next()
		if ok {
			m.heads[i] = r
			m.heap.keys[i] = r.Key
			m.heap.idx = append(m.heap.idx, int32(i))
			continue
		}
		if err := it.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	m.heap.init()
	return m
}

// pop removes and returns the smallest-(Key, input) row, refilling the
// winning input's head.
func (m *mergeIter) pop() (Row, bool) {
	if len(m.heap.idx) == 0 {
		return Row{}, false
	}
	top := m.heap.idx[0]
	out := m.heads[top]
	it := m.its[top]
	r, ok := it.Next()
	if ok {
		m.heads[top] = r
		m.heap.keys[top] = r.Key
		m.heap.fixMin()
	} else {
		m.heads[top] = Row{} // drop row references
		m.heap.keys[top] = ""
		m.heap.popMin()
		if err := it.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	return out, true
}

func (m *mergeIter) Next() (Row, bool) {
	if m.closed || m.err != nil {
		return Row{}, false
	}
	for {
		r, ok := m.pop()
		if m.err != nil {
			return Row{}, false
		}
		if !ok {
			if m.hasPending {
				m.hasPending = false
				return m.pending, true
			}
			return Row{}, false
		}
		if !m.hasPending {
			m.pending, m.hasPending = r, true
			continue
		}
		if r.Key == m.pending.Key {
			if r.WriteTS >= m.pending.WriteTS {
				m.pending = r
			}
			continue
		}
		out := m.pending
		m.pending = r
		return out, true
	}
}

func (m *mergeIter) Err() error { return m.err }

func (m *mergeIter) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.hasPending = false
	var first error
	for _, it := range m.its {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.its = nil
	m.heads = nil
	m.heap.idx = nil
	return first
}

// MergeSorted merges sorted row slices into one sorted slice with the same
// last-write-wins semantics as MergeIters: duplicate clustering keys keep
// the row with the largest WriteTS, later inputs winning ties. It is the
// materialized counterpart used by replica reconciliation (store.mergeRows)
// and in-memory segment compaction, sharing the merge heap rather than the
// iterator plumbing.
func MergeSorted(lists [][]Row) []Row {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	pos := make([]int, len(lists))
	var h headHeap
	h.keys = make([]string, len(lists))
	h.idx = make([]int32, 0, len(lists))
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			h.idx = append(h.idx, int32(i))
			h.keys[i] = l[0].Key
		}
	}
	h.init()
	out := make([]Row, 0, total)
	for len(h.idx) > 0 {
		i := h.idx[0]
		r := lists[i][pos[i]]
		pos[i]++
		if pos[i] < len(lists[i]) {
			h.keys[i] = lists[i][pos[i]].Key
			h.fixMin()
		} else {
			h.popMin()
		}
		if n := len(out); n > 0 && out[n-1].Key == r.Key {
			if r.WriteTS >= out[n-1].WriteTS {
				out[n-1] = r
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
