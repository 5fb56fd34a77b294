package persist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"hpclog/internal/fsys"
)

// A round is the unit of durability of everything the store writes:
// flushes, compactions, footer stubs, the table catalog. It writes all of
// its files under temp names with no sync, crosses ONE barrier
// (fsys.Commit: fsync every file, rename all, one directory fsync),
// and only then acts on them. The round invariant: nothing is published
// to readers, dropped from a memtable, recorded in the tier manifest or
// unlinked before the barrier that covers it. A crash before the barrier
// leaves *.tmp garbage (swept at open) and every input intact.
//
// A round is also the unit of files: a flush or compaction round writes
// its segments as the sections of ONE data file, named after the first
// seq it allocates. Layout:
//
//	sections : back to back from 0, each a segment image (segment.go)
//	strings  : uvarint n | n × (uvarint len | bytes), the string table
//	index    : uvarint n | n × (uvarint seq | uvarint len), in file order,
//	           then uvarint m | m × uvarint seq, the dead marks
//	trailer  : u32 stringsLen | u32 crc32(strings) | u32 indexLen |
//	           u32 crc32(index) | "HPSEGRX2" (24 bytes)
//
// The string table holds, each once, the column names, dictionary values
// and template constants of the file's sections, which their footers name
// by entry number.
//
// A dead mark names a section, of another file, that compaction retired
// and left on disk (see compactRound): a seq once marked is dead in every
// file. Each compaction file and each stub marks every dead section on
// disk when it is written, so no dead section comes back at open.
//
// A file without a round trailer (one written before round files) is
// parsed as one section, which then fails for its codec generation. A
// footer stub has the same layout; its sections are the stubs of the data
// file's live ones, and its string table is the data file's.
const (
	roundTrailer    = "HPSEGRX2"
	roundTrailerLen = 4 + 4 + 4 + 4 + 8
)

// minSection is the length of the smallest segment image: header and
// trailer around an empty footer.
const minSection = int64(len(segHeader)) + trailerLen

// roundWorkers bounds the goroutines encoding one round's segments.
const roundWorkers = 4

// section locates one segment within a data file (or stub).
type section struct {
	seq      uint64
	off, len int64
}

// ErrRoundIndex marks a round index or trailer that does not describe its
// file: what hostile input yields, never a panic (see FuzzRoundIndex).
var ErrRoundIndex = errors.New("persist: malformed round index")

// appendRoundIndex appends the string table strs, the index of secs, in
// file order, and of the dead marks, and the trailer.
func appendRoundIndex(b []byte, strs []string, secs []section, dead []uint64) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	mid := len(b)
	b = binary.AppendUvarint(b, uint64(len(secs)))
	for _, sc := range secs {
		b = binary.AppendUvarint(binary.AppendUvarint(b, sc.seq), uint64(sc.len))
	}
	b = binary.AppendUvarint(b, uint64(len(dead)))
	for _, seq := range dead {
		b = binary.AppendUvarint(b, seq)
	}
	end := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(mid-start))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:mid], crcTable))
	b = binary.LittleEndian.AppendUint32(b, uint32(end-mid))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[mid:end], crcTable))
	return append(b, roundTrailer...)
}

// readSections returns the sections, dead marks and string table of the
// data file or stub r of size bytes; no sections and no table when the
// file carries no round index (one segment image).
func readSections(r io.ReaderAt, size int64) ([]section, []uint64, *strTable, error) {
	var tail [roundTrailerLen]byte
	n := min(size, roundTrailerLen)
	if n < trailerLen {
		return nil, nil, nil, nil
	}
	if _, err := r.ReadAt(tail[roundTrailerLen-n:], size-n); err != nil {
		return nil, nil, nil, err
	}
	// region reads the bytes that end at end, as many as the length word of
	// w says, checks them against its CRC word and returns where they start.
	region := func(what string, end int64, w []byte) ([]byte, int64, error) {
		l := int64(binary.LittleEndian.Uint32(w[0:4]))
		if l > end {
			return nil, 0, fmt.Errorf("%w: a %d-byte %s in a %d-byte file", ErrRoundIndex, l, what, size)
		}
		b := make([]byte, l)
		if _, err := r.ReadAt(b, end-l); err != nil {
			return nil, 0, err
		}
		if crc32.Checksum(b, crcTable) != binary.LittleEndian.Uint32(w[4:8]) {
			return nil, 0, fmt.Errorf("%w: %s checksum mismatch", ErrRoundIndex, what)
		}
		return b, end - l, nil
	}
	if string(tail[roundTrailerLen-8:]) != roundTrailer {
		return nil, nil, nil, nil
	}
	if size < roundTrailerLen {
		return nil, nil, nil, fmt.Errorf("%w: a %d-byte file", ErrRoundIndex, size)
	}
	idx, end, err := region("index", size-roundTrailerLen, tail[8:16])
	if err != nil {
		return nil, nil, nil, err
	}
	strs, end, err := region("string table", end, tail[0:8])
	if err != nil {
		return nil, nil, nil, err
	}
	tab, err := decodeStrTable(strs)
	if err != nil {
		return nil, nil, nil, err
	}
	secs, dead, err := decodeRoundIndex(idx, end)
	return secs, dead, tab, err
}

// strTable is the string table of a round file: the column names,
// dictionary values and template constants of its sections' footers,
// each once, which the footers name by entry number. The writers of a
// round intern into it in their turns (dataFile.turn); a reader decodes it
// once per file and resolves an entry that names a column to its
// dictionary ID once.
type strTable struct {
	mu   sync.Mutex
	strs []string
	refs map[string]uint32 // the entry of each string, while written
	ids  []uint32          // the dictionary ID + 1 of an entry read as a column name, 0 until then
}

// ref returns the entry of s, adding it to the table on first use.
func (t *strTable) ref(s string) uint32 {
	e, ok := t.refs[s]
	if !ok {
		if t.refs == nil {
			t.refs = make(map[string]uint32)
		}
		s = strings.Clone(s) // the table outlives what its writers hand it
		e = uint32(len(t.strs))
		t.refs[s] = e
		t.strs = append(t.strs, s)
	}
	return e
}

// list returns the entries in order; nil for no table.
func (t *strTable) list() []string {
	if t == nil {
		return nil
	}
	return t.strs
}

// at returns entry e.
func (t *strTable) at(e uint64) (string, error) {
	if e >= uint64(len(t.strs)) {
		return "", fmt.Errorf("string table entry %d past a table of %d", e, len(t.strs))
	}
	return t.strs[e], nil
}

// colID returns the dictionary ID of entry e, a column name.
func (t *strTable) colID(e uint32) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ids == nil {
		t.ids = make([]uint32, len(t.strs))
	}
	if t.ids[e] == 0 {
		t.ids[e] = columnID(t.strs[e]) + 1
	}
	return t.ids[e] - 1
}

// decodeStrTable decodes a string table, strictly; its strings share one
// allocation.
func decodeStrTable(b []byte) (*strTable, error) {
	d := NewStringDec(string(b))
	n, err := d.Uvarint()
	if err != nil || n > uint64(d.Rest()) {
		return nil, fmt.Errorf("%w: string table size", ErrRoundIndex)
	}
	t := &strTable{strs: make([]string, n)}
	for i := range t.strs {
		if t.strs[i], err = d.String(); err != nil {
			return nil, fmt.Errorf("%w: string table entry %d: %v", ErrRoundIndex, i, err)
		}
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the string table", ErrRoundIndex, d.Rest())
	}
	return t, nil
}

// decodeRoundIndex decodes an index whose sections must tile [0, end),
// each under its own seq, and whose dead marks name none of them.
func decodeRoundIndex(idx []byte, end int64) ([]section, []uint64, error) {
	d := NewStringDec(string(idx))
	n, err := d.Uvarint()
	if err != nil || n == 0 || n > uint64(d.Rest()) {
		return nil, nil, fmt.Errorf("%w: section count", ErrRoundIndex)
	}
	secs := make([]section, n)
	seen := make(map[uint64]bool, n)
	off := int64(0)
	for i := range secs {
		seq, err1 := d.Uvarint()
		size, err2 := d.Uvarint()
		switch {
		case err1 != nil || err2 != nil:
			return nil, nil, fmt.Errorf("%w: entry %d truncated", ErrRoundIndex, i)
		case seen[seq]:
			return nil, nil, fmt.Errorf("%w: seq %d listed twice", ErrRoundIndex, seq)
		case size < uint64(minSection) || size > uint64(end-off):
			return nil, nil, fmt.Errorf("%w: a %d-byte section at %d of a %d-byte data region", ErrRoundIndex, size, off, end)
		}
		seen[seq] = true
		secs[i] = section{seq, off, int64(size)}
		off += int64(size)
	}
	m, err := d.Uvarint()
	if err != nil || m > uint64(d.Rest()) {
		return nil, nil, fmt.Errorf("%w: dead mark count", ErrRoundIndex)
	}
	dead := make([]uint64, m)
	for i := range dead {
		if dead[i], err = d.Uvarint(); err != nil || seen[dead[i]] {
			return nil, nil, fmt.Errorf("%w: dead mark %d truncated or naming a section of the file", ErrRoundIndex, i)
		}
	}
	if d.Rest() != 0 || off != end {
		return nil, nil, fmt.Errorf("%w: sections end at %d, the index starts at %d", ErrRoundIndex, off, end)
	}
	return secs, dead, nil
}

// parseSections parses the sections of a data file or stub of size bytes
// read through r — of several, those keep accepts (nil keeps all) — and
// returns them with its dead marks and string table.
func parseSections(r io.ReaderAt, size int64, path string, keep func(seq uint64) bool) ([]*Segment, []uint64, *strTable, error) {
	secs, dead, tab, err := readSections(r, size)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	round := secs != nil
	if !round {
		secs = []section{{off: 0, len: size}}
	}
	var segs []*Segment
	for _, sc := range secs {
		if len(secs) > 1 && keep != nil && !keep(sc.seq) {
			continue
		}
		seg, err := parseSection(r, path, sc.off, sc.len, tab)
		if err != nil {
			return nil, nil, nil, err
		}
		if round && seg.meta.Seq != sc.seq {
			return nil, nil, nil, fmt.Errorf("%w: %s: the section of seq %d holds segment %d", ErrRoundIndex, path, sc.seq, seg.meta.Seq)
		}
		seg.base = sc.off
		segs = append(segs, seg)
	}
	return segs, dead, tab, nil
}

// readIndex reads the sections and dead marks of the file at path.
func readIndex(path string) ([]section, []uint64, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	secs, dead, _, err := readSections(f, size)
	return secs, dead, err
}

// openSized opens path for reading and returns its size.
func openSized(path string) (fsys.File, int64, error) {
	f, err := fsys.OS.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// dataFile is one data file. While its round writes it, workers encode
// its sections in parallel and place them in their turns (turn); from the
// barrier on, its sections share its descriptor. refs counts
// the holds on the file, resident or evicted: one per resident section
// and one per reader. The store unlinks it whole and once: once a sweep
// evicts it, or compaction retires its last section or reclaims it. Its
// object goes once compaction has retired it and no reader holds it.
type dataFile struct {
	path string
	f    fsys.File // the temp file until the barrier; nil for a stub's
	size int64
	strs *strTable  // its string table
	segs []*Segment // its live sections
	dead []section  // its sections compaction retired; changed under Store.mu
	refs atomic.Int32
	gone atomic.Bool
	end  int64      // the next free offset, while written
	next int        // the section whose turn it is, while written (turn)
	mu   sync.Mutex // guards next
	due  *sync.Cond // announces each turn
	// closed ends the descriptor once; del, set by retire, the object.
	closed atomic.Bool
	del    atomic.Pointer[func()]
}

// openFile opens the data file at path with every section in it, not yet
// owned, and returns its dead marks.
func openFile(path string) (*dataFile, []uint64, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, nil, err
	}
	segs, dead, tab, err := parseSections(f, size, path, nil)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &dataFile{path: path, f: f, size: size, segs: segs, strs: tab}, dead, nil
}

// own makes the file of size bytes the one segs read.
func (d *dataFile) own(segs []*Segment, size int64) {
	d.size, d.segs = size, segs
	d.refs.Store(int32(len(segs)))
	for _, s := range segs {
		s.file, s.path, s.held = d, d.path, true
	}
}

// drop releases one hold. At the last the descriptor closes — once: an
// evicted file gains holds again from readers through the tier — and a
// retired object goes.
func (d *dataFile) drop() (err error) {
	if d.refs.Add(-1) == 0 {
		if d.f != nil && d.closed.CompareAndSwap(false, true) {
			err = d.f.Close()
		}
		d.reap()
	}
	return err
}

// retire hands the file's object to del, which runs once no hold is left:
// a reader that acquired a section before its retire still reads it.
func (d *dataFile) retire(del func()) {
	d.del.Store(&del)
	d.reap()
}

func (d *dataFile) reap() {
	if d.refs.Load() == 0 {
		if del := d.del.Swap(nil); del != nil {
			(*del)()
		}
	}
}

// unlink removes the file (once); open readers keep the descriptor.
func (d *dataFile) unlink() {
	if d.gone.CompareAndSwap(false, true) {
		fsys.OS.Remove(d.path)
	}
}

// createRound starts the data file of a round at path.
func createRound(path string) (*dataFile, error) {
	f, err := fsys.CreateTemp(path)
	if err != nil {
		return nil, fmt.Errorf("persist: create round file: %w", err)
	}
	d := &dataFile{path: path, f: f, strs: &strTable{}}
	d.due = sync.NewCond(&d.mu)
	return d, nil
}

// turn waits for section i's turn — every section before it placed or
// passed — runs place and passes the turn on. A turn is taken once: the
// worker of section i defers turn(i, nil) to pass it where it failed.
// Placing interns the footer's strings and takes the next offset, so a
// round's file is the same bytes for the same input.
func (d *dataFile) turn(i int, place func() error) (err error) {
	d.mu.Lock()
	for d.next < i {
		d.due.Wait()
	}
	taken := d.next > i
	d.mu.Unlock()
	if taken {
		return nil
	}
	if place != nil {
		err = place()
	}
	d.mu.Lock()
	d.next++
	d.mu.Unlock()
	d.due.Broadcast()
	return err
}

// add writes img, the image of seg, at the next free offset of the file;
// the caller holds the turn.
func (d *dataFile) add(seg *Segment, img []byte) error {
	if _, err := d.f.WriteAt(img, d.end); err != nil {
		return fmt.Errorf("persist: write round file: %w", err)
	}
	seg.base = d.end
	d.end += int64(len(img))
	return nil
}

// copySection copies src, a live section of a resident file the round
// reclaims, into the round's file as its section i, a v9 section: its data
// region byte for byte, so the same seq, blocks and Merkle root, behind
// its footer encoded anew against the round's string table.
func (d *dataFile) copySection(src *Segment, i int) (*Segment, error) {
	local, err := src.acquire()
	if err != nil {
		return nil, err
	}
	defer src.release()
	if !local {
		return nil, fmt.Errorf("persist: %s: segment %d is not resident", src.path, src.Seq())
	}
	m := *src.meta
	sc := scratchPool.Get().(*writerScratch)
	defer scratchPool.Put(sc)
	sc.img = slices.Grow(sc.img[:0], int(m.DataLen))[:m.DataLen]
	if _, err := src.file.f.ReadAt(sc.img, src.base); err != nil {
		return nil, fmt.Errorf("persist: %s: copy segment %d: %w", src.path, src.Seq(), err)
	}
	if crc32.Checksum(sc.img, crcTable) != m.DataCRC {
		return nil, fmt.Errorf("persist: %s: copy segment %d: data checksum mismatch", src.path, src.Seq())
	}
	copy(sc.img, segHeader)
	m.DataCRC = crc32.Checksum(sc.img, crcTable)
	cp := &Segment{
		meta: &m, fold: src.fold, colIDs: src.colIDs, footOff: m.DataLen,
		tree: src.tree, root: src.root, mu: make(chan struct{}, 1),
	}
	return cp, d.turn(i, func() error {
		sc.img = sealFooter(sc.img, &m, src.fold, src.colIDs, d.strs)
		cp.size = int64(len(sc.img))
		return d.add(cp, sc.img)
	})
}

// finish writes the string table and the round index, with the dead
// marks, crosses the barrier and hands the file to segs, its sections —
// unless the round failed with err. On error no file is left.
func (d *dataFile) finish(segs []*Segment, dead []uint64, err error) error {
	var idx []byte
	if err == nil {
		idx = appendRoundIndex(nil, d.strs.list(), sectionsOf(segs), dead)
		_, err = d.f.WriteAt(idx, d.end)
	}
	if err == nil {
		err = fsys.Commit([]string{d.path})
	}
	if err != nil {
		d.f.Close()
		fsys.Discard(d.path)
		return err
	}
	d.own(segs, d.end+int64(len(idx)))
	return nil
}

// sectionsOf returns where segs lie in their file, in file order.
func sectionsOf(segs []*Segment) []section {
	secs := make([]section, len(segs))
	for i, s := range segs {
		secs[i] = section{s.Seq(), s.base, s.size}
	}
	slices.SortFunc(secs, func(a, b section) int { return cmp.Compare(a.off, b.off) })
	return secs
}

// buildStub assembles the footer stub of the data file of segs, read
// through r: each one's header, footer and trailer, and the file's string
// table tab, behind an index that carries the dead marks.
func buildStub(segs []*Segment, dead []uint64, tab *strTable, r io.ReaderAt) ([]byte, error) {
	var stub []byte
	secs := make([]section, len(segs))
	for i, seg := range segs {
		start, head := len(stub), len(segHeader)
		stub = append(stub, make([]byte, int64(head)+seg.size-seg.footOff)...)
		if _, err := r.ReadAt(stub[start:start+head], seg.base); err != nil {
			return nil, err
		}
		if _, err := r.ReadAt(stub[start+head:], seg.base+seg.footOff); err != nil {
			return nil, err
		}
		secs[i] = section{seg.Seq(), int64(start), int64(len(stub) - start)}
	}
	return appendRoundIndex(stub, tab.list(), secs, dead), nil
}
