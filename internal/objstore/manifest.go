package objstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sync"

	"hpclog/internal/fsys"
	"hpclog/internal/wal"
)

// Manifest is the per-node record of segments that live in the object
// store: which local sequence number maps to which object key and which
// section of it, how big the object is, and the Merkle root the section
// must verify against. An object stays live while any entry names it. It
// is the tiering crash-safety anchor: an entry is written only after its
// object is uploaded, read back verified AND made durable, and a local
// data file is released only after its entry is durable. So a crash
// mid-upload leaves no entry (the next sweep re-uploads); a crash
// mid-eviction leaves an entry and the local file, which is re-adopted
// with no second transfer; and an entry with no local file is an evicted
// segment, read through the object store and verified against Root.
//
// On disk it is a wal.Log in a directory of its own, under the wal's one
// damage rule. Each Put or Remove appends one record: a kind byte, then
// the entries or seqs. When dead entries would outnumber live ones the
// write is a snapshot instead: a fresh segment whose one image record
// replaces the state on replay, and the segments before it removed.
type Manifest struct {
	dir string

	mu  sync.Mutex
	log *wal.Log // nil until the first write, and after a failed one
	state
}

// state is what a manifest's records lead to: the live entries, how
// many entries the records since the last image logged, live or dead,
// and whether the log holds nothing but a carried-over image.
type state struct {
	entries map[uint64]ManifestEntry
	logged  int
	carried bool
}

// ManifestEntry describes one uploaded segment: one section of an object.
type ManifestEntry struct {
	Seq       uint64
	Key       string // object key
	Size      int64  // full object (data file) size
	Off       int64  // the section's offset within the object
	DataLen   int64  // end of the data region within the section
	Rows      int64
	Table     string
	Partition string
	Root      [HashLen]byte // Merkle root over the segment's blocks
}

// ErrBadManifest marks a manifest encoding that cannot be decoded: what
// hostile or corrupt input yields, never a panic (FuzzDecodeManifest).
var ErrBadManifest = errors.New("objstore: malformed tier manifest")

const (
	// manifestMagic opens a manifest of the predecessor generation: one
	// file holding a snapshot image, then records framed as kind | u32
	// payload length | payload | u32 crc32c(everything before).
	manifestMagic = "HPTIERM2"
	recHeader     = 5 // a predecessor record's kind and length
	// maxManifestEntries bounds decode allocation against hostile counts.
	maxManifestEntries = 1 << 24

	// Record kinds; the payload is a uvarint count, then as many seqs
	// (remove) or entries (put, image).
	recRemove = 2
	recPut    = 3
	recImage  = 4 // the whole state; only in the log
	recCarry  = 5 // an image of a predecessor file carried over
)

// LoadManifest opens the manifest whose log is the directory path. A
// predecessor file at path is moved aside, carried over as the log's
// first image, and unlinked; a crash at any step makes the next load
// carry it over again. With neither, the manifest is empty (the node has
// uploaded nothing yet), and its first Put creates the log.
func LoadManifest(path string) (*Manifest, error) {
	m := &Manifest{dir: path, state: state{entries: make(map[uint64]ManifestEntry)}}
	old := path + ".v2" // the predecessor file, moved aside
	fi, err := fsys.OS.Stat(path)
	if err == nil && !fi.IsDir() {
		err = fsys.OS.Rename(path, old)
	}
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		err = m.carryOver(old)
	}
	if err == nil && fi != nil && m.log == nil {
		err = m.open()
	}
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("objstore: tier manifest %s: %w", path, err)
	}
	return m, nil
}

// carryOver makes the predecessor file old, if there is one, the log's
// one image, and unlinks it once the log's directory entry is durable.
// The unlink is made durable too before any record can follow the image:
// a file that came back would be carried over again, over those records.
func (m *Manifest) carryOver(old string) error {
	data, err := fsys.ReadFile(old)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	prev := state{entries: make(map[uint64]ManifestEntry)}
	if err == nil {
		_, err = replayManifest(data, &prev)
	}
	if err == nil {
		err = m.open()
	}
	if err == nil {
		err = m.snapshot(recCarry, prev.entries)
	}
	if err == nil {
		err = fsys.SyncPath(filepath.Dir(m.dir))
	}
	if err == nil {
		err = fsys.Unlink(old)
	}
	if err != nil {
		return err
	}
	m.state = state{entries: prev.entries, logged: len(prev.entries), carried: true}
	return nil
}

// open opens the log, creating it if need be, and loads the state its
// records lead to.
func (m *Manifest) open() error {
	log, err := wal.Open(wal.Options{Dir: m.dir})
	if err != nil {
		return err
	}
	st := state{entries: make(map[uint64]ManifestEntry)}
	if _, err := log.Replay(func(_ wal.LSN, rec []byte) error { _, err := st.apply(rec[0], rec[1:]); return err }); err != nil {
		log.Close()
		return err
	}
	m.log, m.state = log, st
	return nil
}

// Close closes the log.
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	return m.log.Close()
}

// CarriedOver reports whether the log holds nothing but the image a
// predecessor file was carried over as. The predecessor's retires
// removed entries before their stubs, so until the next write a stub no
// entry names may be one such retire's leftover, not a lost record.
func (m *Manifest) CarriedOver() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.carried
}

// Entries returns every entry, sorted by Seq.
func (m *Manifest) Entries() []ManifestEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedEntries(m.entries)
}

func sortedEntries(entries map[uint64]ManifestEntry) []ManifestEntry {
	return slices.SortedFunc(maps.Values(entries), func(a, b ManifestEntry) int { return cmp.Compare(a.Seq, b.Seq) })
}

// Len returns the entry count.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// MaxSeq returns the largest recorded sequence number (0 when empty) —
// recovery seeds the store's sequence counter past it so an evicted
// segment's number is never reissued to a new file.
func (m *Manifest) MaxSeq() (top uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for seq := range m.entries {
		top = max(top, seq)
	}
	return top
}

// Put durably records the entries with one log record, replacing any
// previous entry of the same Seq.
func (m *Manifest) Put(entries ...ManifestEntry) error {
	if len(entries) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitLocked(record(recPut, entries))
}

// Remove durably drops the entries for seqs with one log record. Absent
// seqs are skipped; removing nothing writes nothing.
func (m *Manifest) Remove(seqs ...uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var present []byte
	n := 0
	for _, seq := range seqs {
		if _, had := m.entries[seq]; had {
			present, n = binary.AppendUvarint(present, seq), n+1
		}
	}
	if n == 0 {
		return nil
	}
	return m.commitLocked(append(binary.AppendUvarint([]byte{recRemove}, uint64(n)), present...))
}

// commitLocked makes rec durable, then the state it leads to current —
// by a snapshot when that state's dead entries would outnumber its live
// ones. A failed write poisons the log: it is closed, and the next write
// reopens it and reloads the state from what reached it.
func (m *Manifest) commitLocked(rec []byte) error {
	if m.log == nil {
		if err := m.open(); err != nil {
			return err
		}
	}
	next := state{entries: maps.Clone(m.entries), logged: m.logged}
	if _, err := next.apply(rec[0], rec[1:]); err != nil {
		return err
	}
	var err error
	if dead := next.logged - len(next.entries); dead > len(next.entries) {
		err = m.snapshot(recImage, next.entries)
		next.logged = len(next.entries)
	} else {
		_, err = m.log.Append(rec)
	}
	if err != nil {
		m.log.Close()
		m.log = nil
		return err
	}
	m.state = next
	return nil
}

// snapshot starts a fresh segment holding one image of entries, of kind
// recImage or recCarry, and removes the segments before it. The write is
// done once the image is durable: a removal that fails, or that a crash
// undoes, leaves segments that replay before the image and change
// nothing, and the next snapshot removes them again. So its error is
// not the write's.
func (m *Manifest) snapshot(kind byte, entries map[uint64]ManifestEntry) error {
	if err := m.log.Rotate(); err != nil {
		return err
	}
	lsn, err := m.log.Append(record(kind, sortedEntries(entries)))
	if err == nil {
		_, _ = m.log.TruncateBelow(lsn.Seg)
	}
	return err
}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// record encodes a put or an image of entries.
func record(kind byte, entries []ManifestEntry) []byte {
	rec := binary.AppendUvarint([]byte{kind}, uint64(len(entries)))
	for _, e := range entries {
		rec = appendManifestEntry(rec, e)
	}
	return rec
}

func appendManifestEntry(b []byte, e ManifestEntry) []byte {
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, e.Seq)
	appendStr(e.Key)
	b = binary.AppendUvarint(b, uint64(e.Size))
	b = binary.AppendUvarint(b, uint64(e.Off))
	b = binary.AppendUvarint(b, uint64(e.DataLen))
	b = binary.AppendUvarint(b, uint64(e.Rows))
	appendStr(e.Table)
	appendStr(e.Partition)
	return append(b, e.Root[:]...)
}

// manifestDec reads the manifest's primitives off b; the first failure
// sticks in err (always wrapping ErrBadManifest) and later reads return
// zero values.
type manifestDec struct {
	b   []byte
	err error
}

func (d *manifestDec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadManifest, what)
	}
}

func (d *manifestDec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail(what)
		return 0
	}
	d.b = d.b[k:]
	return v
}

func (d *manifestDec) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail(what + " overruns buffer")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// entry decodes one entry.
func (d *manifestDec) entry() (e ManifestEntry) {
	e.Seq = d.uvarint("seq")
	e.Key = d.str("key")
	size, off := d.uvarint("size"), d.uvarint("offset")
	dataLen, rows := d.uvarint("data len"), d.uvarint("rows")
	e.Table = d.str("table")
	e.Partition = d.str("partition")
	if d.err != nil {
		return e
	}
	if size > 1<<62 || off > size || dataLen > size-off {
		d.fail("implausible sizes")
		return e
	}
	e.Size, e.Off, e.DataLen, e.Rows = int64(size), int64(off), int64(dataLen), int64(rows)
	if len(d.b) < HashLen {
		d.fail("root truncated")
		return e
	}
	copy(e.Root[:], d.b)
	d.b = d.b[HashLen:]
	if validKey(e.Key) != nil {
		d.fail("invalid object key")
	}
	return e
}

// apply applies the record of kind at the front of b and returns the
// bytes after it: an image replaces the state, a put adds or replaces
// entries, a remove drops seqs (absent ones are skipped).
func (st *state) apply(kind byte, b []byte) ([]byte, error) {
	if kind < recRemove || kind > recCarry {
		return nil, fmt.Errorf("%w: record kind %d", ErrBadManifest, kind)
	}
	d := manifestDec{b: b}
	count := d.uvarint("entry count")
	if count > maxManifestEntries {
		d.fail("entry count exceeds sanity bound")
		count = 0
	}
	if kind == recImage || kind == recCarry {
		clear(st.entries)
		st.logged = 0
	}
	st.carried = kind == recCarry
	for i := uint64(0); i < count && d.err == nil; i++ {
		if kind == recRemove {
			delete(st.entries, d.uvarint("removed seq"))
		} else if e := d.entry(); d.err == nil {
			st.entries[e.Seq] = e
		}
	}
	st.logged += int(count)
	return d.b, d.err
}

// replayManifest folds a predecessor file — snapshot image, then
// records — into st and returns the length of its whole-record prefix.
// Bytes past it are a torn tail: zero fill, or an incomplete record with
// no whole record after it. A complete record that is malformed or fails
// its CRC is corruption, as is an incomplete one followed by a whole
// record.
func replayManifest(data []byte, st *state) (valid int, err error) {
	if len(data) < len(manifestMagic) || string(data[:len(manifestMagic)]) != manifestMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	rest, err := st.apply(recImage, data[len(manifestMagic):])
	if err != nil {
		return 0, err
	}
	valid = len(data) - len(rest)
	if len(rest) < 4 || crc32.Checksum(data[:valid], manifestCRC) != binary.LittleEndian.Uint32(rest) {
		return 0, fmt.Errorf("%w: checksum mismatch", ErrBadManifest)
	}
	for valid += 4; valid < len(data); {
		rest := data[valid:]
		payload, kind, n := nextRecord(rest)
		if n <= 0 {
			if len(bytes.TrimLeft(rest, "\x00")) == 0 || (n == 0 && !recordFollows(rest[1:])) {
				return valid, nil // torn tail
			}
			return 0, fmt.Errorf("%w: damaged record at offset %d", ErrBadManifest, valid)
		}
		if rest, err := st.apply(kind, payload); err != nil {
			return 0, err
		} else if len(rest) != 0 {
			return 0, fmt.Errorf("%w: trailing bytes in record at offset %d", ErrBadManifest, valid)
		}
		valid += n
	}
	return valid, nil
}

// nextRecord frames the record at the front of b: n > 0 is its encoded
// length, n == 0 means b ends before the record does, n < 0 that the
// record is all there but its kind or CRC is wrong.
func nextRecord(b []byte) (payload []byte, kind byte, n int) {
	if len(b) < recHeader {
		return nil, 0, 0
	}
	end := recHeader + int64(binary.LittleEndian.Uint32(b[1:recHeader]))
	if end+4 > int64(len(b)) {
		return nil, 0, 0
	}
	if kind = b[0]; (kind != recPut && kind != recRemove) || crc32.Checksum(b[:end], manifestCRC) != binary.LittleEndian.Uint32(b[end:]) {
		return nil, 0, -1
	}
	return b[recHeader:end], kind, int(end) + 4
}

// recordFollows reports whether a whole, CRC-valid record starts at any
// offset of b — what separates a damaged record in mid-log from a torn
// tail.
func recordFollows(b []byte) bool {
	for i := range b {
		if _, _, n := nextRecord(b[i:]); n > 0 {
			return true
		}
	}
	return false
}
