package objstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpclog/internal/fsys"
	"hpclog/internal/fsys/fsystest"
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
	if _, ok := re.Get(2); ok {
		t.Fatal("removed entry survived reload")
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TIER")
	m, _ := LoadManifest(path)
	if err := m.Put(testEntry(1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle: the CRC must catch it.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("want ErrBadManifest, got %v", err)
	}
}

func TestDecodeManifestHostile(t *testing.T) {
	good := EncodeManifest([]ManifestEntry{testEntry(1), testEntry(2)})
	cases := [][]byte{
		nil,
		[]byte("HPTIERM1"),
		[]byte("XXTIERM1\x00\x00\x00\x00"),
		good[:len(good)-5],                      // torn tail
		append(append([]byte{}, good...), 0x00), // appended garbage breaks CRC
	}
	for i, c := range cases {
		if _, err := DecodeManifest(c); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: want ErrBadManifest, got %v", i, err)
		}
	}
}

// logBytes builds a manifest file the way the Manifest writes one: a
// snapshot, then one record per op (op > 0 puts seq op, op < 0 removes
// seq -op).
func logBytes(t testing.TB, snapshot []ManifestEntry, ops ...int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "TIER")
	if err := os.WriteFile(path, EncodeManifest(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.dead = -1 << 30 // never compact into a snapshot: the log itself is under test
	for _, op := range ops {
		if op > 0 {
			err = m.Put(testEntry(uint64(op)))
		} else {
			err = m.Remove(uint64(-op))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestManifestLogAppendsAndSnapshots(t *testing.T) {
	rec := fsystest.Install(t)
	path := filepath.Join(t.TempDir(), "TIER")
	m, _ := LoadManifest(path)
	writes := manifestWrites(rec)
	var batch []ManifestEntry
	for seq := uint64(1); seq <= 100; seq++ {
		batch = append(batch, testEntry(seq))
	}
	if err := m.Put(batch...); err != nil {
		t.Fatal(err)
	}
	image, _ := os.Stat(path)
	if err := m.Put(testEntry(101), testEntry(102)); err != nil {
		t.Fatal(err)
	}
	if n := manifestWrites(rec) - writes; n != 2 {
		t.Fatalf("%d manifest writes for two batches, want 2", n)
	}
	grown, _ := os.Stat(path)
	if per := (grown.Size() - image.Size()) / 2; per > image.Size()/100+8 {
		t.Fatalf("appended record costs %d B per entry, the image %d B", per, image.Size()/100)
	}

	// Dropping most entries leaves more dead than live: the next write is
	// a snapshot, and the file shrinks to the image of what is left.
	var seqs []uint64
	for seq := uint64(1); seq <= 90; seq++ {
		seqs = append(seqs, seq)
	}
	if err := m.Remove(seqs...); err != nil {
		t.Fatal(err)
	}
	shrunk, _ := os.Stat(path)
	if want := int64(len(EncodeManifest(m.Entries()))); shrunk.Size() != want {
		t.Fatalf("after removing 90 of 102 the file is %d B, a snapshot of the rest is %d B", shrunk.Size(), want)
	}
	re, err := LoadManifest(path)
	if err != nil || !reflect.DeepEqual(re.Entries(), m.Entries()) {
		t.Fatalf("reload after snapshot: %v", err)
	}
}

func TestManifestLogTornTailAndCorruption(t *testing.T) {
	good := logBytes(t, []ManifestEntry{testEntry(1)}, 2, 3, -1, 4)
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
	last := len(logBytes(t, []ManifestEntry{testEntry(1)}, 2, 3, -1))
	for cut := last; cut < len(good); cut++ {
		m, err := load(good[:cut])
		if err != nil || !reflect.DeepEqual(seqs(m), []uint64{2, 3}) {
			t.Fatalf("cut at %d of %d: %v %v", cut, len(good), seqs(m), err)
		}
		if cut == last+1 {
			if err := m.Put(testEntry(9)); err != nil {
				t.Fatal(err)
			}
			if re, err := LoadManifest(m.Path()); err != nil || !reflect.DeepEqual(seqs(re), []uint64{2, 3, 9}) {
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
	first := len(EncodeManifest([]ManifestEntry{testEntry(1)}))
	bad := append([]byte{}, good...)
	bad[first+3] = 0x7f // the first record's length now runs past the end
	if _, err := load(bad); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("mid-log length damage: want ErrBadManifest, got %v", err)
	}
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add(EncodeManifest(nil))
	f.Add(EncodeManifest([]ManifestEntry{testEntry(1)}))
	f.Add(EncodeManifest([]ManifestEntry{testEntry(1), testEntry(7), testEntry(42)}))
	f.Add([]byte("HPTIERM1"))
	f.Add(logBytes(f, nil, 1, 2, -1, 3))
	f.Add(logBytes(f, []ManifestEntry{testEntry(5)}, -5, 5, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeManifest(data) // must never panic
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("non-typed decode error: %v", err)
			}
		} else if bytes.HasPrefix(data, []byte(manifestMagicV1)) {
			// A v1 image re-encodes in the current format, to the same entries.
			if again, err := DecodeManifest(EncodeManifest(entries)); err != nil || !reflect.DeepEqual(again, entries) {
				t.Fatalf("v1 image does not survive re-encoding: %v", err)
			}
		} else if !bytes.Equal(EncodeManifest(entries), data) {
			// Anything else that decodes as an image must re-encode canonically.
			t.Fatal("decode/encode not canonical")
		}

		// As a log: never a panic; what replays replays the same from its
		// own whole-record prefix, and a pre-log image is a log of itself.
		got := make(map[uint64]ManifestEntry)
		valid, logged, lerr := replayManifest(data, got)
		if lerr != nil {
			if !errors.Is(lerr, ErrBadManifest) {
				t.Fatalf("non-typed replay error: %v", lerr)
			}
			if err == nil {
				t.Fatal("a valid image failed to load as a log")
			}
			return
		}
		if valid > len(data) || logged < len(got) {
			t.Fatalf("valid=%d of %d bytes, logged=%d for %d live", valid, len(data), logged, len(got))
		}
		again := make(map[uint64]ManifestEntry)
		if v2, l2, err := replayManifest(data[:valid], again); err != nil || v2 != valid || l2 != logged || !reflect.DeepEqual(again, got) {
			t.Fatalf("replay of the whole-record prefix differs: %v", err)
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

// manifestWrites counts the manifest writes rec saw: appended records and
// snapshot images.
func manifestWrites(rec *fsystest.FS) int {
	return rec.Count("openfile", "TIER") + rec.Count("create", "TIER"+fsys.TempExt)
}

// TestFaultManifestWriteRollsBack: a Put or Remove whose record write, or
// whose snapshot's rename, fails leaves Entries() and the reloaded file as
// they were before the call, and the next Put cuts the unacknowledged tail
// the failed write left.
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
		{"remove snapshot", "rename", func() error { return m.Remove(1, 2, 3, 4, 5, 6, 7, 8) }},
	}
	for i, c := range cases {
		before := m.Entries()
		rec.Fail(func(op fsystest.Op) error {
			if op.Kind == c.kind && strings.HasPrefix(filepath.Base(op.Path), "TIER") {
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
