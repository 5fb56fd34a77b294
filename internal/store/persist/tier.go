package persist

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hpclog/internal/fsys"
	"hpclog/internal/objstore"
	"hpclog/internal/wal"
)

// tierManifestName is the per-node manifest of uploaded segments: a log
// directory beside the segment files.
const tierManifestName = "TIER"

// TierSetup attaches an object-store tier to a Store at open.
type TierSetup struct {
	// Tier is the process-wide tier (object store + shared block cache).
	Tier *objstore.Tier
	// Prefix namespaces this node's objects within the store (e.g.
	// "node-3"); object keys are <prefix>/<data file name>.
	Prefix string
}

// tierBatch is how many data files one pass of the sweep pipeline carries
// between barriers: one object-store barrier, one manifest record and one
// stub barrier per batch.
const tierBatch = 128

// ErrTierRequired marks a segment directory whose manifest references
// evicted segments opened without a tier configuration — refusing to
// open beats silently serving partial data.
var ErrTierRequired = errors.New("persist: segment data is evicted to an object store; tier configuration required")

// tierObjKey is the deterministic object key of a data file: crash
// recovery re-uploads to the same key, so an interrupted upload can
// never leak an orphan object.
func (s *Store) tierObjKey(df *dataFile) string {
	return s.tierPrefix + "/" + filepath.Base(df.path)
}

// keyStub returns the local footer-stub path of the object at key.
func (s *Store) keyStub(key string) string {
	return stubPath(filepath.Join(s.dir, path.Base(key)))
}

// reconcileTier replays the manifest against the local directory after
// the resident data files are opened (local: their live segments by seq;
// dead: the seqs dead marks name):
//
//   - entry + its section in its object's local file (crash between
//     manifest write and unlink, or eviction never ran): re-adopt the
//     local file — a later eviction needs no second transfer;
//   - entry of a section since copied into another file, or marked dead
//     (crash before compaction dropped the entries): stale, removed after
//     the stub of an object no other entry names;
//   - entry + stub: open the evicted section, reads go through the tier;
//   - entry alone (fresh disk): rebuild the object's stub from the object;
//   - stub without an entry: a stub is written only after its entries
//     are durable, and every retire unlinks it (durably) before them, so
//     the manifest lost an acknowledged record (a cut tail that was bit
//     rot, not a torn append): wal.ErrCorrupt, before anything changes.
//     Until the first write after a predecessor manifest file was carried
//     over, such a stub may be left by that file's retires, which removed
//     the entries first: swept, as they were then;
//   - object without an entry (a crash, or a failed delete, after its
//     retire): garbage, deleted. No upload is in flight at open.
//
// nextSeq is seeded past every manifest seq so an evicted segment's
// number is never reissued to a new file.
func (s *Store) reconcileTier(local map[uint64]*Segment, dead map[uint64]bool) error {
	ctx := context.Background()
	all := s.manifest.Entries()
	named := make(map[string]bool) // the stub names of the objects entries name
	for _, e := range all {
		named[filepath.Base(s.keyStub(e.Key))] = true
	}
	entries, err := fsys.OS.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var strays []string
	for _, de := range entries {
		if !strings.HasSuffix(de.Name(), segStubExt) || named[de.Name()] {
			continue
		}
		sp := filepath.Join(s.dir, de.Name())
		if !s.manifest.CarriedOver() {
			return fmt.Errorf("persist: %s: footer stub of an object no tier manifest entry names (the manifest lost an acknowledged record): %w", sp, wal.ErrCorrupt)
		}
		strays = append(strays, sp)
	}
	// Durable before a manifest write ends the carried-over state.
	if err := fsys.Unlink(strays...); err != nil {
		return err
	}
	stale := make(map[uint64]string)                     // seq → object key
	evicted := make(map[string][]objstore.ManifestEntry) // by object key
	for _, e := range all {
		name := path.Base(e.Key)
		seg, ok := local[e.Seq]
		switch {
		case ok && filepath.Base(seg.path) == name:
			if root, hasRoot := seg.MerkleRoot(); !hasRoot || root != e.Root {
				return fmt.Errorf("%w: %s: local segment %d does not match the manifest-recorded upload", objstore.ErrIntegrity, seg.path, e.Seq)
			}
			seg.SetTier(s.tier, e.Key)
			fsys.OS.Remove(s.keyStub(e.Key)) // interrupted eviction: local file re-adopted
		case ok || dead[e.Seq]:
			stale[e.Seq] = e.Key
		default:
			evicted[e.Key] = append(evicted[e.Key], e)
		}
	}
	var rebuilt []string // stubs rebuilt from the object store, one round
	for key, es := range evicted {
		sp := s.keyStub(key)
		if _, err := fsys.OS.Stat(sp); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				err = fetchStub(ctx, s.tier, es[0], sp)
			}
			if err != nil {
				fsys.Discard(rebuilt...)
				return err
			}
			rebuilt = append(rebuilt, sp)
		}
	}
	if err := fsys.Commit(rebuilt); err != nil {
		return err
	}
	for key, es := range evicted {
		segs, err := openStub(s.keyStub(key), s.tier, es)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			k := segKey{seg.Table(), seg.Partition()}
			s.segs[k] = append(s.segs[k], seg)
		}
	}
	if ms := s.manifest.MaxSeq(); ms >= s.nextSeq {
		s.nextSeq = ms + 1
	}
	// A stub that fails to go keeps its entries, for the next open.
	seqs, _ := s.retireStubs(stale)
	if err := s.manifest.Remove(seqs...); err != nil {
		return fmt.Errorf("persist: drop manifest entries %v: %w", seqs, err)
	}
	// A failed listing or delete only leaves garbage for the next open.
	keys, _ := s.tier.Store().List(ctx, s.tierPrefix+"/")
	named = s.namedKeys()
	for _, key := range keys {
		if !named[key] {
			s.tier.Store().Delete(ctx, key)
		}
	}
	return nil
}

// retireStubs unlinks the stub of each object only entries of keys (seq
// → object key) name, and returns the seqs whose entries may go: those of
// an object whose stub fails to go stay, so no stub outlives its entries,
// and the failure is returned. The unlinks are made durable first, or no
// entry goes: a crash must not bring back a stub whose entries are gone.
func (s *Store) retireStubs(keys map[uint64]string) ([]uint64, error) {
	done := make(map[string]bool) // objects other entries name, or whose stub went
	for _, e := range s.manifest.Entries() {
		if _, retiring := keys[e.Seq]; !retiring {
			done[e.Key] = true
		}
	}
	failed := make(map[string]bool)
	var errs []error
	unlinked := false
	for _, key := range keys {
		if done[key] || failed[key] {
			continue
		}
		err := fsys.OS.Remove(s.keyStub(key))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			failed[key], errs = true, append(errs, err)
		}
		done[key], unlinked = true, unlinked || err == nil
	}
	if unlinked {
		if err := fsys.SyncPath(s.dir); err != nil {
			return nil, errors.Join(append(errs, err)...)
		}
	}
	var seqs []uint64
	for seq, key := range keys {
		if !failed[key] {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs, errors.Join(errs...)
}

// namedKeys returns the object keys the manifest names.
func (s *Store) namedKeys() map[string]bool {
	named := make(map[string]bool)
	for _, e := range s.manifest.Entries() {
		named[e.Key] = true
	}
	return named
}

// openStub opens the evicted segments of one object from its footer stub:
// those its manifest entries es name, each at its entry's offset. Every
// footer parses as in the data file, every Merkle root must match its
// manifest-pinned root, and all block reads go through tier.
func openStub(stub string, tier *objstore.Tier, es []objstore.ManifestEntry) ([]*Segment, error) {
	bySeq := make(map[uint64]objstore.ManifestEntry, len(es))
	for _, e := range es {
		bySeq[e.Seq] = e
	}
	f, size, err := openSized(stub)
	if err != nil {
		return nil, err
	}
	segs, _, _, err := parseSections(f, size, stub, func(seq uint64) bool { _, ok := bySeq[seq]; return ok })
	f.Close()
	if err != nil {
		return nil, err
	}
	df := &dataFile{path: strings.TrimSuffix(stub, segStubExt) + segFileExt, segs: segs}
	if len(segs) != len(es) {
		return nil, fmt.Errorf("persist: %s holds %d of the %d segments the manifest places in its object", stub, len(segs), len(es))
	}
	for _, seg := range segs {
		e, ok := bySeq[seg.Seq()]
		if !ok || seg.root != e.Root {
			return nil, fmt.Errorf("%w: %s: stub segment %d does not match the manifest", objstore.ErrIntegrity, stub, seg.Seq())
		}
		seg.file, seg.path = df, df.path
		seg.base, seg.size, seg.footOff = e.Off, seg.meta.DataLen+seg.size-seg.footOff, seg.meta.DataLen
		seg.tier, seg.tierKey, seg.tiered = tier, e.Key, true
	}
	return segs, nil
}

// readerFunc adapts a function to io.ReaderAt.
type readerFunc func(p []byte, off int64) (int, error)

func (f readerFunc) ReadAt(p []byte, off int64) (int, error) { return f(p, off) }

// fetchStub rebuilds the missing footer stub of e's object from the object
// store by ranged reads (the local directory lost both the data file and
// the stub — e.g. a fresh disk recovering from the manifest) under path's
// temp name, for the caller's round to commit.
func fetchStub(ctx context.Context, tier *objstore.Tier, e objstore.ManifestEntry, path string) error {
	at := readerFunc(func(p []byte, off int64) (int, error) {
		b, err := tier.Store().ReadRange(ctx, e.Key, off, int64(len(p)))
		return copy(p, b), err
	})
	segs, dead, tab, err := parseSections(at, e.Size, e.Key, nil)
	var stub []byte
	if err == nil {
		stub, err = buildStub(segs, dead, tab, at)
	}
	if err != nil {
		return fmt.Errorf("persist: fetch the stub of %s: %w", e.Key, err)
	}
	return fsys.WriteTemp(path, stub)
}

// TierSweep uploads eligible data files to the object store and releases
// them locally, counting segments. Policy: a segment is cold when a newer
// one exists in its partition, and a data file goes when cold segments
// hold at least half its live bytes — so local disk keeps no more cold
// bytes than hot, and no mostly cold file for the sake of one newest
// segment; force sweeps every file. A file with a segment without rows
// stays. The sweep is a batched pipeline — upload and verify a batch of
// files, one object-store barrier, one manifest record, one stub per file
// and one barrier, unlink the batch — and upholds the round invariant at
// each step: no manifest entry before its object is durable, no stub
// before its entries are, no unlink before its stub is. Failures are
// joined into the returned error and the sweep continues.
func (s *Store) TierSweep(ctx context.Context, force bool) (uploaded, evicted int, err error) {
	if s.tier == nil {
		return 0, 0, nil
	}
	start := time.Now()
	type load struct {
		cold, live int64
		empty      bool // a segment without rows: no Merkle root to pin
	}
	loads := make(map[*dataFile]load)
	s.mu.RLock()
	for _, list := range s.segs {
		for i, seg := range list {
			if !seg.Tiered() {
				l := loads[seg.file]
				if l.live += seg.size; i < len(list)-1 || force {
					l.cold += seg.size
				}
				l.empty = l.empty || !seg.CanTier()
				loads[seg.file] = l
			}
		}
	}
	marks := deadMarks(s.dirtyFiles(), nil)
	s.mu.RUnlock()
	var files []*dataFile
	for df, l := range loads {
		if !l.empty && 2*l.cold >= l.live {
			files = append(files, df)
		}
	}
	slices.SortFunc(files, func(a, b *dataFile) int { return strings.Compare(a.path, b.path) })
	var errs []error
	for len(files) > 0 {
		n := min(tierBatch, len(files))
		up, ev, berr := s.sweepBatch(ctx, files[:n], marks)
		uploaded, evicted, files = uploaded+up, evicted+ev, files[n:]
		if berr != nil {
			errs = append(errs, berr)
		}
	}
	if uploaded+evicted > 0 || len(errs) > 0 { // idle background passes are not sweeps
		s.SweepHist.Record(time.Since(start))
	}
	return uploaded, evicted, errors.Join(errs...)
}

// sweepBatch carries one batch of data files through the pipeline; their
// stubs carry the dead marks.
func (s *Store) sweepBatch(ctx context.Context, files []*dataFile, marks []uint64) (uploaded, evicted int, err error) {
	// Pin every section of the files still wholly resident.
	var batch []*dataFile
	for _, df := range files {
		if pinFile(df) {
			batch = append(batch, df)
		}
	}
	defer func() {
		for _, df := range batch {
			for _, seg := range df.segs {
				seg.release()
			}
		}
	}()

	// Upload and read-back verify what has no object copy yet; a failed
	// upload drops out of the batch.
	var errs []error
	var fresh []*dataFile
	var entries []objstore.ManifestEntry
	var keys []string
	ready := batch[:0:0]
	for _, df := range batch {
		if df.segs[0].Uploaded() {
			ready = append(ready, df)
			continue
		}
		es, uerr := s.uploadFile(ctx, df)
		if uerr != nil {
			errs = append(errs, uerr)
			continue
		}
		fresh, entries, keys = append(fresh, df), append(entries, es...), append(keys, es[0].Key)
	}
	if len(fresh) > 0 {
		// The objects become durable, then — with one record — recorded.
		err := s.tier.Store().Sync(ctx, keys)
		if err == nil {
			err = s.manifest.Put(entries...)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("persist: record %d uploads: %w", len(fresh), err))
		} else {
			for i, df := range fresh {
				for _, seg := range df.segs {
					seg.SetTier(s.tier, keys[i])
				}
				uploaded += len(df.segs)
			}
			ready = append(ready, fresh...)
		}
	}

	// One stub per file, one barrier, then the unlinks.
	stubs := make([]string, 0, len(ready))
	for _, df := range ready {
		if serr := writeStub(df, marks); serr != nil {
			fsys.Discard(stubs...)
			return uploaded, 0, errors.Join(append(errs, serr)...)
		}
		stubs = append(stubs, stubPath(df.path))
	}
	if err := fsys.Commit(stubs); err != nil {
		return uploaded, 0, errors.Join(append(errs, err)...)
	}
	for _, df := range ready {
		for _, seg := range df.segs {
			seg.markEvicted()
			s.tier.Evictions.Inc()
		}
		df.unlink()
		evicted += len(df.segs)
	}
	return uploaded, evicted, errors.Join(errs...)
}

// pinFile acquires every section of df as a local reader, or none when
// one was retired or evicted while sweeping.
func pinFile(df *dataFile) bool {
	for i, seg := range df.segs {
		if local, err := seg.acquire(); !local {
			if err == nil {
				seg.release()
			}
			for _, pinned := range df.segs[:i] {
				pinned.release()
			}
			return false
		}
	}
	return true
}

// uploadFile streams df to the object store and verifies it by read-back,
// returning the manifest entries that will record its sections.
func (s *Store) uploadFile(ctx context.Context, df *dataFile) ([]objstore.ManifestEntry, error) {
	key := s.tierObjKey(df)
	if err := s.tier.UploadAndVerify(ctx, key, df.f, df.size); err != nil {
		return nil, fmt.Errorf("persist: upload %s: %w", df.path, err)
	}
	es := make([]objstore.ManifestEntry, len(df.segs))
	for i, seg := range df.segs {
		es[i] = objstore.ManifestEntry{
			Seq: seg.Seq(), Key: key, Size: df.size, Off: seg.base, DataLen: seg.meta.DataLen,
			Rows: int64(seg.Rows()), Table: seg.Table(), Partition: seg.Partition(),
			Root: seg.root, // eligible segments have rows, hence a root
		}
	}
	return es, nil
}

// writeStub writes the footer stub of df, with the dead marks, under its
// temp name. Once its barrier has passed the file may go, so the caller
// must have uploaded, verified AND durably manifest-recorded the object
// first.
func writeStub(df *dataFile, marks []uint64) error {
	stub, err := buildStub(df.segs, marks, df.strs, df.f)
	if err != nil {
		return err
	}
	return fsys.WriteTemp(stubPath(df.path), stub)
}

// dropTiered removes the object-store presence of retired segments, which
// take no new reader: cached blocks, then the stub of each object no
// entry will name any more, then the manifest entries with one record
// (a crash in between leaves entries that dead marks already retire). An
// object left unnamed goes with its file's last reader; one a crash or a
// failed delete strands, at the next open.
func (s *Store) dropTiered(segs []*Segment) error {
	if s.tier == nil {
		return nil
	}
	keys := make(map[uint64]string)     // seq → object key
	files := make(map[string]*dataFile) // by object key
	for _, seg := range segs {
		if key := seg.TierKey(); key != "" {
			keys[seg.Seq()], files[key] = key, seg.file
			s.tier.Cache().Drop(key, seg.base, seg.base+seg.size)
		}
	}
	seqs, err := s.retireStubs(keys)
	if rerr := s.manifest.Remove(seqs...); rerr != nil {
		return errors.Join(err, fmt.Errorf("persist: drop manifest entries %v: %w", seqs, rerr))
	}
	named := s.namedKeys()
	for key, df := range files {
		if !named[key] {
			df.retire(func() { s.tier.Store().Delete(context.Background(), key) })
		}
	}
	return err
}

// SegmentInfo is the wire-facing description of one segment — the
// Merkle root is the diffable unit Merkle anti-entropy needs.
type SegmentInfo struct {
	Table     string `json:"table"`
	Partition string `json:"partition"`
	Seq       uint64 `json:"seq"`
	Rows      int    `json:"rows"`
	Bytes     int64  `json:"bytes"`
	MinKey    string `json:"min_key"`
	MaxKey    string `json:"max_key"`
	// Root is the hex Merkle root over the segment's blocks (empty for a
	// segment without rows).
	Root string `json:"merkle_root,omitempty"`
	// Tier is "resident", "uploaded" (object copy exists, data local), or
	// "evicted" (reads fetch from the object store).
	Tier string `json:"tier"`
}

// SegmentInfos snapshots every segment, ordered by table, partition, seq.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.RLock()
	segs := make([]*Segment, 0, 16)
	for _, list := range s.segs {
		segs = append(segs, list...)
	}
	s.mu.RUnlock()
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		min, max := seg.KeyRange()
		info := SegmentInfo{
			Table: seg.Table(), Partition: seg.Partition(), Seq: seg.Seq(),
			Rows: seg.Rows(), Bytes: seg.Size(), MinKey: min, MaxKey: max,
			Tier: "resident",
		}
		if root, ok := seg.MerkleRoot(); ok {
			info.Root = fmt.Sprintf("%x", root)
		}
		if seg.Tiered() {
			info.Tier = "evicted"
		} else if seg.Uploaded() {
			info.Tier = "uploaded"
		}
		out = append(out, info)
	}
	slices.SortFunc(out, func(a, b SegmentInfo) int {
		return cmp.Or(strings.Compare(a.Table, b.Table), strings.Compare(a.Partition, b.Partition), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}
