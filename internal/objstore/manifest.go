package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sort"
	"sync"

	"hpclog/internal/fsys"
)

// Manifest is the per-node record of segments that live in the object
// store: which local sequence number maps to which object key and which
// section of it, how big the object is, and the Merkle root the section
// must verify against. An object stays live while any entry names it. It
// is the
// tiering crash-safety anchor — entries are appended (one fsynced record
// per batch) only after their objects are uploaded, read back verified
// AND made durable, and a local data file is released only after its
// entry is durable. So:
//
//   - a crash mid-upload leaves no entry: recovery sees the local file
//     as the only copy and the next sweep re-uploads;
//   - a crash mid-eviction (entry durable, local file still present)
//     re-adopts the local file and remembers the upload — the next
//     eviction needs no second transfer;
//   - an entry with no local file is an evicted segment: reads go
//     through the object store, verified against Root.
//
// The manifest NEVER references a half-uploaded object (the upload is
// verified before the entry is written), which the crash harness
// asserts directly.
//
// On disk it is an append-only log: a snapshot image (EncodeManifest —
// the whole file, for manifests written before the log existed) followed
// by CRC-framed put and remove records. A record cut short by a crash is
// a torn tail and is dropped at load — nothing acted on it, because
// callers act only after the append returned; a complete record that
// fails its CRC is corruption and refuses to load. When the log holds
// more dead entries than live ones it is rewritten as one snapshot.
type Manifest struct {
	path string

	mu      sync.Mutex
	entries map[uint64]ManifestEntry
	size    int64 // length of the valid log; the next record lands here
	dead    int   // logged entries a snapshot would drop (superseded puts, removes)
	torn    bool  // the file has bytes past size; cut before the next append
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

// ErrBadManifest marks a manifest encoding that cannot be decoded.
// Hostile or corrupt input yields it (never a panic); see
// FuzzDecodeManifest.
var ErrBadManifest = errors.New("objstore: malformed tier manifest")

const (
	manifestMagic = "HPTIERM2"
	// manifestMagicV1 and recPutV1 are the image and put record of entries
	// without an offset (Off 0), written while an object held one segment.
	manifestMagicV1 = "HPTIERM1"
	// maxManifestEntries bounds decode allocation against hostile counts.
	maxManifestEntries = 1 << 24

	// Log record kinds. A record is kind | u32 payload length | payload |
	// u32 crc32c(everything before).
	recPutV1  = 1
	recRemove = 2 // payload: uvarint count | uvarint seqs
	recPut    = 3 // payload: uvarint count | entries
	recHeader = 5
)

// LoadManifest opens the manifest at path; a missing file is an empty
// manifest (the node has uploaded nothing yet).
func LoadManifest(path string) (*Manifest, error) {
	m := &Manifest{path: path, entries: make(map[uint64]ManifestEntry)}
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return m, nil
		}
		return nil, err
	}
	valid, logged, err := replayManifest(data, m.entries)
	if err != nil {
		return nil, fmt.Errorf("objstore: %s: %w", path, err)
	}
	m.size, m.torn = int64(valid), valid < len(data)
	m.dead = logged - len(m.entries)
	return m, nil
}

// Entries returns every entry, sorted by Seq.
func (m *Manifest) Entries() []ManifestEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sortedLocked()
}

func (m *Manifest) sortedLocked() []ManifestEntry {
	out := make([]ManifestEntry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
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
func (m *Manifest) MaxSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max uint64
	for seq := range m.entries {
		if seq > max {
			max = seq
		}
	}
	return max
}

// Put durably records the entries with one log record, replacing any
// previous entry of the same Seq.
func (m *Manifest) Put(entries ...ManifestEntry) error {
	if len(entries) == 0 {
		return nil
	}
	payload := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		payload = appendManifestEntry(payload, e)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := make(map[uint64]ManifestEntry)
	for _, e := range entries {
		if p, had := m.entries[e.Seq]; had {
			prev[e.Seq] = p
		}
		m.entries[e.Seq] = e
	}
	if err := m.logLocked(recPut, payload, len(prev)); err != nil {
		for _, e := range entries {
			delete(m.entries, e.Seq)
		}
		for seq, p := range prev {
			m.entries[seq] = p
		}
		return err
	}
	return nil
}

// Remove durably drops the entries for seqs with one log record. Absent
// seqs are skipped; removing nothing writes nothing.
func (m *Manifest) Remove(seqs ...uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var prev []ManifestEntry
	for _, seq := range seqs {
		if p, had := m.entries[seq]; had {
			prev = append(prev, p)
			delete(m.entries, seq)
		}
	}
	if len(prev) == 0 {
		return nil
	}
	payload := binary.AppendUvarint(nil, uint64(len(prev)))
	for _, p := range prev {
		payload = binary.AppendUvarint(payload, p.Seq)
	}
	// Each removed seq kills two logged entries: its put and itself.
	if err := m.logLocked(recRemove, payload, 2*len(prev)); err != nil {
		for _, p := range prev {
			m.entries[p.Seq] = p
		}
		return err
	}
	return nil
}

// logLocked makes the already-applied change durable: one appended
// record, or — when the file does not exist yet or dead entries would
// outnumber live ones — one snapshot of the current state. dead is how
// many logged entries the record kills.
func (m *Manifest) logLocked(kind byte, payload []byte, dead int) error {
	if m.size == 0 || m.dead+dead > len(m.entries) {
		return m.snapshotLocked()
	}
	rec := make([]byte, 0, recHeader+len(payload)+4)
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, manifestCRC))
	f, err := fsys.OS.OpenFile(m.path, fsys.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if m.torn {
		err = f.Truncate(m.size)
	}
	if err == nil {
		_, err = f.WriteAt(rec, m.size)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Whatever reached the file past size is an unacknowledged tail.
		m.torn = true
		return err
	}
	m.torn = false
	m.size += int64(len(rec))
	m.dead += dead
	return nil
}

// snapshotLocked rewrites the file as one image of the current entries,
// atomically: a crash leaves either the old log or the new snapshot.
func (m *Manifest) snapshotLocked() error {
	data := EncodeManifest(m.sortedLocked())
	if err := fsys.WriteTemp(m.path, data); err != nil {
		return err
	}
	if err := fsys.Commit([]string{m.path}, nil); err != nil {
		m.size = 0 // the file may be either generation: snapshot again, never append
		return err
	}
	m.size, m.dead, m.torn = int64(len(data)), 0, false
	return nil
}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

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

// EncodeManifest renders entries to the snapshot image:
// magic | uvarint count | entries | u32 crc32c(everything before).
func EncodeManifest(entries []ManifestEntry) []byte {
	b := []byte(manifestMagic)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendManifestEntry(b, e)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, manifestCRC))
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

// count reads an entry count, bounded against hostile values.
func (d *manifestDec) count() uint64 {
	n := d.uvarint("entry count")
	if n > maxManifestEntries {
		d.fail("entry count exceeds sanity bound")
		return 0
	}
	return n
}

// entry decodes one entry; a v1 entry has no offset.
func (d *manifestDec) entry(v1 bool) (e ManifestEntry) {
	e.Seq = d.uvarint("seq")
	e.Key = d.str("key")
	size, off := d.uvarint("size"), uint64(0)
	if !v1 {
		off = d.uvarint("offset")
	}
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

// decodeImage decodes the snapshot image at the front of data and returns
// its entries and encoded length.
func decodeImage(data []byte) ([]ManifestEntry, int, error) {
	if len(data) < len(manifestMagic)+4 {
		return nil, 0, fmt.Errorf("%w: too short", ErrBadManifest)
	}
	magic := string(data[:len(manifestMagic)])
	if magic != manifestMagic && magic != manifestMagicV1 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	d := manifestDec{b: data[len(manifestMagic):]}
	count := d.count()
	entries := make([]ManifestEntry, 0, min(count, 1024))
	for i := uint64(0); i < count && d.err == nil; i++ {
		entries = append(entries, d.entry(magic == manifestMagicV1))
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	n := len(data) - len(d.b)
	if len(d.b) < 4 || crc32.Checksum(data[:n], manifestCRC) != binary.LittleEndian.Uint32(d.b) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadManifest)
	}
	return entries, n + 4, nil
}

// replayManifest folds a manifest file — snapshot image, then records —
// into entries. valid is the length of the whole-record prefix and logged
// the number of entries (puts and removes) that prefix holds. Bytes past
// valid are a torn tail: zero fill, or an incomplete record with no whole
// record after it. A complete record that is malformed or fails its CRC
// is corruption, as is an incomplete one followed by a whole record.
func replayManifest(data []byte, entries map[uint64]ManifestEntry) (valid, logged int, err error) {
	image, valid, err := decodeImage(data)
	if err != nil {
		return 0, 0, err
	}
	logged = len(image)
	for _, e := range image {
		entries[e.Seq] = e
	}
	for valid < len(data) {
		rest := data[valid:]
		payload, kind, n := nextRecord(rest)
		if n <= 0 {
			if allZero(rest) || (n == 0 && !recordFollows(rest[1:])) {
				return valid, logged, nil // torn tail
			}
			return 0, 0, fmt.Errorf("%w: damaged record at offset %d", ErrBadManifest, valid)
		}
		d := manifestDec{b: payload}
		count := d.count()
		for i := uint64(0); i < count && d.err == nil; i++ {
			if kind != recRemove {
				if e := d.entry(kind == recPutV1); d.err == nil {
					entries[e.Seq] = e
				}
			} else {
				delete(entries, d.uvarint("removed seq"))
			}
		}
		if d.err == nil && len(d.b) != 0 {
			d.fail("trailing bytes in record")
		}
		if d.err != nil {
			return 0, 0, d.err
		}
		logged += int(count)
		valid += n
	}
	return valid, logged, nil
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
	if kind = b[0]; kind != recPut && kind != recPutV1 && kind != recRemove {
		return nil, 0, -1
	}
	if crc32.Checksum(b[:end], manifestCRC) != binary.LittleEndian.Uint32(b[end:]) {
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

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
