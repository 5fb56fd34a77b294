package persist

import "slices"

// Match is the selection column = value, value non-empty: a component's
// events read off event_by_time by their source, say. As a Pruner it skips
// a block whose group list of the column shows the value absent — an exact
// test — or, where the block has none, whose zone map or Bloom filter
// rules it out. As a scan's ScanConfig.Select it also selects row by row:
// the batch scan decodes the column's codes before anything else of a
// block, decides each dictionary entry once, drops a block without a
// matched row undecoded and materialises the matched rows alone; a merged
// or row-fed scan filters its rows by it (BatchRows). A Match remembers
// the code of its value in the section dictionary it met last, so it
// serves one scan, whose iterators one goroutine drains.
type Match struct {
	col    uint32
	value  string
	h1, h2 uint64
	sd     *sectionDict // the dictionary code was looked up in
	code   int          // value's code in sd, -1 if absent
}

// NewMatch returns the selection of the rows whose cell of column name is
// value. A value in template form is not a cell a block can test, so the
// template column cannot be selected on; nor can "", which absent cells
// read as.
func NewMatch(name, value string) *Match {
	id := defaultDict.Intern(name)
	if id == templateColID || value == "" {
		panic("persist: a Match needs a column other than the template column and a non-empty value")
	}
	m := &Match{col: id, value: value}
	m.h1, m.h2 = BloomHash(name, value)
	return m
}

// PruneBlock implements Pruner.
func (m *Match) PruneBlock(b *BlockStats) bool {
	if g := b.groups(m.col); g != nil {
		k := m.codeIn(g.dict)
		return k < 0 || g.present[k/64]&(1<<(k%64)) == 0
	}
	if z := b.Zone(m.col); z != nil && (z.Cells == 0 || m.value < z.MinVal || m.value > z.MaxVal) {
		return true
	}
	return !b.MayContain(m.h1, m.h2)
}

// codeIn returns the code of the value in sd, -1 where sd lacks it.
func (m *Match) codeIn(sd *sectionDict) int {
	if sd != m.sd {
		m.sd, m.code = sd, slices.Index(sd.vals, m.value)
	}
	return m.code
}

// matches reports whether row r holds the value.
func (m *Match) matches(r Row) bool { return r.ColID(m.col) == m.value }
