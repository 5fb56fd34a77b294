package objstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpclog/internal/fsys/fsystest"
	"hpclog/internal/testutil"
	"hpclog/internal/wal"
)

func testEntry(seq uint64) ManifestEntry {
	e := ManifestEntry{
		Seq:       seq,
		Key:       "node-0/segments/seg.bin",
		Size:      4096,
		DataLen:   3800,
		Rows:      120,
		Table:     "events",
		Partition: "p-7",
	}
	e.Root = HashBlock([]byte{byte(seq)})
	return e
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("fresh manifest has %d entries", m.Len())
	}
	for _, seq := range []uint64{5, 2, 9} {
		if err := m.Put(testEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Remove(2); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(2); err != nil { // idempotent
		t.Fatal(err)
	}

	re, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Entries()
	if len(got) != 2 || got[0].Seq != 5 || got[1].Seq != 9 {
		t.Fatalf("reloaded entries: %+v", got)
	}
	if got[0] != testEntry(5) {
		t.Fatalf("entry 5 mutated across save/load: %+v", got[0])
	}
	if re.MaxSeq() != 9 {
		t.Fatalf("MaxSeq = %d", re.MaxSeq())
	}
}

// TestManifestRejectsCorruption: damage in a record with a whole record
// after it refuses to load with the wal's ErrCorrupt; damage in the last
// record alone is a torn tail, cut at load.
func TestManifestRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, _ := LoadManifest(path)
	for _, seq := range []uint64{1, 2} {
		if err := m.Put(testEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	seg := logSegments(t, path)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	starts := frames(data)
	for i, want := range []error{wal.ErrCorrupt, nil} {
		bad := append([]byte{}, data...)
		bad[starts[i]+frameHeader+10] ^= 0x40
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := LoadManifest(path)
		if !errors.Is(err, want) || (err == nil && (re.Len() != 1 || re.Entries()[0] != testEntry(1))) {
			t.Fatalf("flip in record %d of 2: %v, want %v and the records before it", i+1, err, want)
		}
	}
}

// decodeWhole decodes data as a predecessor file and nothing after it.
func decodeWhole(data []byte) ([]ManifestEntry, error) {
	st := state{entries: make(map[uint64]ManifestEntry)}
	valid, err := replayManifest(data, &st)
	if err == nil && valid != len(data) {
		err = fmt.Errorf("%w: trailing garbage", ErrBadManifest)
	}
	return sortedEntries(st.entries), err
}

func TestDecodeManifestHostile(t *testing.T) {
	good := predecessor([]ManifestEntry{testEntry(1), testEntry(2)})
	cases := [][]byte{
		nil,
		[]byte("HPTIERM1"),
		[]byte("XXTIERM1\x00\x00\x00\x00"),
		good[:len(good)-5],                      // torn tail
		append(append([]byte{}, good...), 0x00), // appended garbage breaks CRC
	}
	for i, c := range cases {
		if _, err := decodeWhole(c); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: want ErrBadManifest, got %v", i, err)
		}
	}
}

// predecessor renders a manifest file of the predecessor generation the
// way its writer did: an image of snapshot, then one framed record per op
// (op > 0 puts seq op, op < 0 removes seq -op).
func predecessor(snapshot []ManifestEntry, ops ...int) []byte {
	b := binary.AppendUvarint([]byte(manifestMagic), uint64(len(snapshot)))
	for _, e := range snapshot {
		b = appendManifestEntry(b, e)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, manifestCRC))
	for _, op := range ops {
		kind, payload := byte(recPut), binary.AppendUvarint(nil, 1)
		if op > 0 {
			payload = appendManifestEntry(payload, testEntry(uint64(op)))
		} else {
			kind, payload = recRemove, binary.AppendUvarint(payload, uint64(-op))
		}
		rec := binary.LittleEndian.AppendUint32([]byte{kind}, uint32(len(payload)))
		rec = append(rec, payload...)
		b = binary.LittleEndian.AppendUint32(append(b, rec...), crc32.Checksum(rec, manifestCRC))
	}
	return b
}

// The wal's segment layout, as the manifest tests walk it: a header, then
// frames of a length and a CRC before each record.
const segHeader, frameHeader = 16, 8

// frames returns the offset of each frame of a wal segment.
func frames(seg []byte) (starts []int) {
	for off := segHeader; off+frameHeader <= len(seg); {
		starts = append(starts, off)
		off += frameHeader + int(binary.LittleEndian.Uint32(seg[off:]))
	}
	return starts
}

// logSegments returns the segment files of the manifest log at path, oldest
// first.
func logSegments(t testing.TB, path string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(path, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no log segments in %s (%v)", path, err)
	}
	return segs
}

// logBytes returns the bytes the manifest log at path holds.
func logBytes(t testing.TB, path string) (n int64) {
	t.Helper()
	for _, seg := range logSegments(t, path) {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

func TestManifestLogAppendsAndSnapshots(t *testing.T) {
	rec := fsystest.Install(t)
	path := filepath.Join(t.TempDir(), "TIER")
	m, _ := LoadManifest(path)
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading an empty manifest created its log (%v)", err)
	}
	writes := manifestWrites(rec)
	var batch []ManifestEntry
	for seq := uint64(1); seq <= 100; seq++ {
		batch = append(batch, testEntry(seq))
	}
	if err := m.Put(batch...); err != nil {
		t.Fatal(err)
	}
	image := logBytes(t, path)
	if err := m.Put(testEntry(101), testEntry(102)); err != nil {
		t.Fatal(err)
	}
	if n := manifestWrites(rec) - writes; n != 2 {
		t.Fatalf("%d manifest writes for two batches, want 2", n)
	}
	if per := (logBytes(t, path) - image) / 2; per > image/100+8 {
		t.Fatalf("appended record costs %d B per entry, the first batch %d B", per, image/100)
	}

	// Dropping most entries leaves more dead than live: the next write is
	// a snapshot, and the log shrinks to one segment holding one image of
	// what is left.
	var seqs []uint64
	for seq := uint64(1); seq <= 90; seq++ {
		seqs = append(seqs, seq)
	}
	if err := m.Remove(seqs...); err != nil {
		t.Fatal(err)
	}
	want := int64(segHeader + frameHeader + len(record(recImage, m.Entries())))
	if segs, size := logSegments(t, path), logBytes(t, path); len(segs) != 1 || size != want {
		t.Fatalf("after removing 90 of 102 the log is %d B in %d segments, one image of the rest is %d B", size, len(segs), want)
	}
	re, err := LoadManifest(path)
	if err != nil || !reflect.DeepEqual(re.Entries(), m.Entries()) {
		t.Fatalf("reload after snapshot: %v", err)
	}
}

// TestManifestEmptySnapshotOutlivesOldSegments: a remove that leaves
// nothing live is a snapshot with an empty image. The write is done once
// the image is durable: when the old segment then fails to go, the remove
// still succeeds, and the segment left behind replays before the image
// and changes nothing — reloads hold no entry, and so does the manifest
// after the next snapshot removes the segment.
func TestManifestEmptySnapshotOutlivesOldSegments(t *testing.T) {
	rec := fsystest.Install(t)
	path := filepath.Join(t.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Put(testEntry(1), testEntry(2), testEntry(3)); err != nil {
		t.Fatal(err)
	}
	rec.Fail(func(op fsystest.Op) error {
		if op.Kind == "remove" && strings.HasPrefix(filepath.Base(op.Path), "wal-") {
			return errors.New("injected unlink failure")
		}
		return nil
	})
	err = m.Remove(1, 2, 3)
	rec.Fail(nil)
	if err != nil || m.Len() != 0 {
		t.Fatalf("remove of every entry: %v, %d left", err, m.Len())
	}
	if segs := logSegments(t, path); len(segs) != 2 {
		t.Fatalf("the failed unlink left segments %v, want the old one and the image's", segs)
	}
	if re, err := LoadManifest(path); err != nil || re.Len() != 0 {
		t.Fatalf("reload over the segment left behind: %v, %d entries", err, re.Len())
	}
	for seq := uint64(4); seq <= 6; seq++ {
		if err := m.Put(testEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Remove(4, 5, 6); err != nil {
		t.Fatal(err)
	}
	if segs := logSegments(t, path); len(segs) != 1 {
		t.Fatalf("the next snapshot left segments %v, want its own alone", segs)
	}
	if re, err := LoadManifest(path); err != nil || re.Len() != 0 {
		t.Fatalf("reload after the next snapshot: %v, %d entries", err, re.Len())
	}
}

// TestManifestLogTornTailAndCorruption: a predecessor file is carried
// over under its own damage rule.
func TestManifestLogTornTailAndCorruption(t *testing.T) {
	good := predecessor([]ManifestEntry{testEntry(1)}, 2, 3, -1, 4)
	load := func(data []byte) (*Manifest, error) {
		path := filepath.Join(t.TempDir(), "TIER")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadManifest(path)
	}
	seqs := func(m *Manifest) (out []uint64) {
		for _, e := range m.Entries() {
			out = append(out, e.Seq)
		}
		return out
	}
	m, err := load(good)
	if err != nil || !reflect.DeepEqual(seqs(m), []uint64{2, 3, 4}) {
		t.Fatalf("replay: %v %v", seqs(m), err)
	}

	// Every cut inside the last record is a torn tail: the load succeeds
	// with the records before it, and the next append lands cleanly.
	last := len(predecessor([]ManifestEntry{testEntry(1)}, 2, 3, -1))
	for cut := last; cut < len(good); cut++ {
		m, err := load(good[:cut])
		if err != nil || !reflect.DeepEqual(seqs(m), []uint64{2, 3}) {
			t.Fatalf("cut at %d of %d: %v %v", cut, len(good), seqs(m), err)
		}
		if cut == last+1 {
			if err := m.Put(testEntry(9)); err != nil {
				t.Fatal(err)
			}
			if re, err := LoadManifest(m.dir); err != nil || !reflect.DeepEqual(seqs(re), []uint64{2, 3, 9}) {
				t.Fatalf("append after a torn tail: %v %v", seqs(re), err)
			}
		}
	}
	// So is zero fill past the last whole record.
	if m, err := load(append(good[:last:last], make([]byte, 64)...)); err != nil || len(seqs(m)) != 2 {
		t.Fatalf("zero-filled tail: %v", err)
	}

	// A flipped bit anywhere — snapshot, mid-log or the complete last
	// record — refuses to load.
	for _, at := range []int{10, last - 20, len(good) - 20} {
		bad := append([]byte{}, good...)
		bad[at] ^= 0x10
		if _, err := load(bad); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("flip at %d of %d: want ErrBadManifest, got %v", at, len(good), err)
		}
	}
	// A record damaged so that it looks cut short, with whole records
	// after it, is corruption, not a torn tail.
	first := len(predecessor([]ManifestEntry{testEntry(1)}))
	bad := append([]byte{}, good...)
	bad[first+3] = 0x7f // the first record's length now runs past the end
	if _, err := load(bad); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("mid-log length damage: want ErrBadManifest, got %v", err)
	}
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add(predecessor(nil))
	f.Add(predecessor([]ManifestEntry{testEntry(1)}))
	f.Add(predecessor([]ManifestEntry{testEntry(1), testEntry(7), testEntry(42)}))
	torn := predecessor([]ManifestEntry{testEntry(1)}, 2, 3)
	f.Add(torn[:len(torn)-3])
	f.Add(predecessor(nil, 1, 2, -1, 3))
	f.Add(predecessor([]ManifestEntry{testEntry(5)}, -5, 5, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Never a panic; what replays replays the same from its own
		// whole-record prefix, and its image replays to it.
		got := state{entries: make(map[uint64]ManifestEntry)}
		valid, err := replayManifest(data, &got)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("non-typed replay error: %v", err)
			}
			return
		}
		if valid > len(data) || got.logged < len(got.entries) {
			t.Fatalf("valid=%d of %d bytes, logged=%d for %d live", valid, len(data), got.logged, len(got.entries))
		}
		again := state{entries: make(map[uint64]ManifestEntry)}
		if v2, err := replayManifest(data[:valid], &again); err != nil || v2 != valid || !reflect.DeepEqual(again, got) {
			t.Fatalf("replay of the whole-record prefix differs: %v", err)
		}
		image := predecessor(sortedEntries(got.entries))
		if entries, err := decodeWhole(image); err != nil || !reflect.DeepEqual(entries, sortedEntries(got.entries)) {
			t.Fatalf("the image of what replayed does not replay to it: %v", err)
		}

		// Carried over, it loads as the same entries, and again from the log.
		path := filepath.Join(t.TempDir(), "TIER")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			m, err := LoadManifest(path)
			if err != nil || !reflect.DeepEqual(m.Entries(), sortedEntries(got.entries)) {
				t.Fatalf("carried over, the file loads other entries (%v)", err)
			}
			m.Close()
		}
	})
}

// FuzzManifestLogModel replays random put/remove sequences through a
// Manifest — appends, snapshot rewrites and a reload after every few ops
// — and checks it against a map.
func FuzzManifestLogModel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x81, 4, 0x82, 0x83, 5})
	f.Add([]byte{9, 9, 0x89, 9, 0x89, 0x89})
	f.Fuzz(func(t *testing.T, ops []byte) {
		path := filepath.Join(t.TempDir(), "TIER")
		m, err := LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[uint64]ManifestEntry)
		for i, op := range ops {
			seq := uint64(op & 0x0f)
			if op&0x80 != 0 {
				err = m.Remove(seq, seq+1)
				delete(model, seq)
				delete(model, seq+1)
			} else {
				e := testEntry(seq)
				e.Rows = int64(i) // a re-put replaces
				err = m.Put(e)
				model[seq] = e
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if m, err = LoadManifest(path); err != nil {
					t.Fatal(err)
				}
			}
			got := make(map[uint64]ManifestEntry)
			for _, e := range m.Entries() {
				got[e.Seq] = e
			}
			if !reflect.DeepEqual(got, model) {
				t.Fatalf("after op %d: manifest %v, model %v", i, got, model)
			}
		}
	})
}

// FuzzManifestLogRecovery runs FuzzCommitlogRecovery's model over a
// manifest's log: a log of acked puts and removes across two segments —
// the second opening with a snapshot image, the first kept as a failed
// truncation leaves it — is damaged by a byte flip, a truncation or a
// zero fill at a point of its segments laid end to end (a truncation
// drops the segments after the cut), then loaded. The load never panics,
// and fails only with wal.ErrCorrupt; otherwise it holds the state after
// a prefix of the records, one holding every record that lies wholly
// before the first damaged byte.
func FuzzManifestLogRecovery(f *testing.F) {
	path := filepath.Join(f.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		f.Fatal(err)
	}
	states := [][]ManifestEntry{nil} // after each record
	var sealed []byte
	for i, op := range []int{1, 2, 3, 4, -1, 5, 6, -4} {
		if op > 0 {
			err = m.Put(testEntry(uint64(op)))
		} else if op == -1 {
			// Three removes leave one entry of seven logged: a snapshot,
			// which seals the first segment.
			if sealed, err = os.ReadFile(logSegments(f, path)[0]); err == nil {
				err = m.Remove(1, 2, 3)
			}
		} else {
			err = m.Remove(uint64(-op))
		}
		if err != nil {
			f.Fatalf("op %d: %v", i, err)
		}
		states = append(states, m.Entries())
	}
	m.Close()
	if segs := logSegments(f, path); len(segs) != 1 || filepath.Base(segs[0]) != "wal-0000000000000002.log" {
		f.Fatalf("the snapshot left segments %v, want the second alone", segs)
	}
	newest, err := os.ReadFile(logSegments(f, path)[0])
	if err != nil {
		f.Fatal(err)
	}
	image := append(append([]byte{}, sealed...), newest...)
	var ends []int // where each record ends in image
	for _, seg := range []struct{ at, n int }{{0, len(sealed)}, {len(sealed), len(newest)}} {
		for _, off := range frames(image[seg.at : seg.at+seg.n]) {
			ends = append(ends, seg.at+off+frameHeader+int(binary.LittleEndian.Uint32(image[seg.at+off:])))
		}
	}
	if len(ends) != len(states)-1 {
		f.Fatalf("%d records for %d ops", len(ends), len(states)-1)
	}
	len1, total := len(sealed), len(image)
	// testutil.Damage's faults, by op.
	const flip, truncate, zero = 0, 1, 2
	f.Add(uint8(flip), uint16(0), uint8(0))                        // sealed segment's magic
	f.Add(uint8(flip), uint16(len1), uint8(0))                     // newest segment's magic
	f.Add(uint8(flip), uint16(segHeader+frameHeader+4), uint8(7))  // sealed record 0's payload
	f.Add(uint8(flip), uint16(ends[4]+frameHeader+6), uint8(0x40)) // the image's payload
	f.Add(uint8(flip), uint16(ends[6]+1), uint8(1))                // the last record's length
	f.Add(uint8(flip), uint16(total-1), uint8(0))                  // the last byte
	f.Add(uint8(truncate), uint16(ends[1]+3), uint8(0))            // inside the sealed segment
	f.Add(uint8(truncate), uint16(ends[5]+20), uint8(0))           // inside the newest segment
	f.Add(uint8(zero), uint16(ends[2]), uint8(255))                // sealed records 3 on
	f.Add(uint8(zero), uint16(len1+3), uint8(20))                  // newest header into the image
	f.Add(uint8(zero), uint16(total-16), uint8(15))                // the last record
	f.Fuzz(func(t *testing.T, op uint8, pos uint16, n uint8) {
		damaged, first := testutil.Damage(image, op, pos, n)
		before := 0
		for before < len(ends) && ends[before] <= first {
			before++
		}
		d := filepath.Join(t.TempDir(), "TIER")
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, part := range [][]byte{damaged[:min(len(damaged), len1)], damaged[min(len(damaged), len1):]} {
			if i == 0 || len(damaged) > len1 {
				if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("wal-%016d.log", i+1)), part, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		m, err := LoadManifest(d)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("load failed: %v", err)
			}
			return
		}
		defer m.Close()
		got := m.Entries()
		for k := before; k < len(states); k++ {
			if reflect.DeepEqual(got, states[k]) || (len(got) == 0 && len(states[k]) == 0) {
				return
			}
		}
		t.Fatalf("loaded %v: the state after no prefix of at least the %d records before the first damaged byte %d", got, before, first)
	})
}

// manifestWrites counts the manifest writes rec saw: fsyncs of its log.
func manifestWrites(rec *fsystest.FS) int {
	return rec.Count("sync", "wal-*.log")
}

// TestFaultManifestWriteRollsBack: a Put or Remove whose record write, or
// whose snapshot's new segment, fails leaves Entries() and the reloaded
// log as they were before the call, and the next Put reopens the log,
// cutting the unacknowledged tail the failed write left.
func TestFaultManifestWriteRollsBack(t *testing.T) {
	rec := fsystest.Install(t)
	path := filepath.Join(t.TempDir(), "TIER")
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := m.Put(testEntry(seq)); err != nil {
			t.Fatal(err)
		}
	}
	injected := errors.New("injected manifest fault")
	replaced := testEntry(3)
	replaced.Rows = 7
	cases := []struct {
		name, kind string
		op         func() error
	}{
		{"put record", "write", func() error { return m.Put(testEntry(50), replaced) }},
		{"remove record", "write", func() error { return m.Remove(2, 4) }},
		{"remove snapshot", "create", func() error { return m.Remove(1, 2, 3, 4, 5, 6, 7, 8) }},
	}
	for i, c := range cases {
		before := m.Entries()
		rec.Fail(func(op fsystest.Op) error {
			if op.Kind == c.kind && strings.HasPrefix(filepath.Base(op.Path), "wal-") {
				return injected
			}
			return nil
		})
		err := c.op()
		rec.Fail(nil)
		if !errors.Is(err, injected) {
			t.Fatalf("%s: error %v, want the injected fault", c.name, err)
		}
		if !reflect.DeepEqual(m.Entries(), before) {
			t.Fatalf("%s: a failed write changed the entries", c.name)
		}
		if re, err := LoadManifest(path); err != nil || !reflect.DeepEqual(re.Entries(), before) {
			t.Fatalf("%s: the reloaded file is not the one before the call (%v)", c.name, err)
		}
		if err := m.Put(testEntry(uint64(100 + i))); err != nil {
			t.Fatalf("%s: the next put: %v", c.name, err)
		}
		if re, err := LoadManifest(path); err != nil || !reflect.DeepEqual(re.Entries(), m.Entries()) {
			t.Fatalf("%s: after the next put the file reloads to other entries (%v)", c.name, err)
		}
	}
}
