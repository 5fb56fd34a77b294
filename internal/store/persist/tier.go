package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hpclog/internal/objstore"
)

// tierManifestName is the per-node manifest of uploaded segments, stored
// beside the segment files.
const tierManifestName = "TIER"

// TierSetup attaches an object-store tier to a Store at open.
type TierSetup struct {
	// Tier is the process-wide tier (object store + shared block cache).
	Tier *objstore.Tier
	// Prefix namespaces this node's objects within the store (e.g.
	// "node-3"); object keys are <prefix>/<seq>.seg.
	Prefix string
}

// tierBatch is how many segments one pass of the sweep pipeline carries
// between barriers: one object-store barrier, one manifest record and one
// stub barrier per batch.
const tierBatch = 128

// TierCrashHook, when non-nil, is invoked at each durability boundary of
// the upload/eviction pipeline with the stage name and the sequence
// number of each segment in the batch at that stage. The crash harness
// uses it to capture directory images "mid-upload" and "mid-eviction" and
// prove recovery from each. Stages, in pipeline order:
//
//	pre-upload    — about to stream the segment to the object store
//	post-upload   — object uploaded and read-back verified, manifest not yet written
//	post-manifest — manifest record durable, local data files still authoritative
//	post-stub     — footer stubs durable, data files not yet unlinked
var TierCrashHook func(stage string, seq uint64)

func tierHook(stage string, seq uint64) {
	if TierCrashHook != nil {
		TierCrashHook(stage, seq)
	}
}

// ErrTierRequired marks a segment directory whose manifest references
// evicted segments opened without a tier configuration — refusing to
// open beats silently serving partial data.
var ErrTierRequired = errors.New("persist: segment data is evicted to an object store; tier configuration required")

// tierObjKey is the deterministic object key for a segment: crash
// recovery re-uploads to the same key, so an interrupted upload can
// never leak an orphan object.
func (s *Store) tierObjKey(seq uint64) string {
	return fmt.Sprintf("%s/%020d%s", s.tierPrefix, seq, segFileExt)
}

// reconcileTier replays the manifest against the local directory after
// the resident segments are opened:
//
//   - entry + local data file (crash between manifest write and unlink,
//     or eviction never ran): re-adopt the local file and remember the
//     upload — a later eviction needs no second transfer;
//   - entry + stub: open the evicted segment, reads go through the tier;
//   - entry alone (fresh disk): rebuild the stub from the object store;
//   - stub without entry (crash mid-retire after the manifest entry was
//     removed): garbage, swept.
//
// nextSeq is seeded past every manifest seq so an evicted segment's
// number is never reissued to a new file.
func (s *Store) reconcileTier() error {
	ctx := context.Background()
	bySeq := make(map[uint64]*Segment)
	for _, list := range s.segs {
		for _, seg := range list {
			bySeq[seg.Seq()] = seg
		}
	}
	live := make(map[string]bool)
	var evicted []objstore.ManifestEntry
	var rebuilt []string // stubs rebuilt from the object store, one round
	for _, e := range s.manifest.Entries() {
		sp := stubPath(s.segPath(e.Seq))
		live[filepath.Base(sp)] = true
		if seg, ok := bySeq[e.Seq]; ok {
			root, hasRoot := seg.MerkleRoot()
			if !hasRoot || root != e.Root {
				objstore.Discard(rebuilt)
				return fmt.Errorf("%w: %s: local segment does not match the manifest-recorded upload", objstore.ErrIntegrity, s.segPath(e.Seq))
			}
			seg.SetTier(s.tier, e.Key)
			os.Remove(sp) // interrupted eviction: local file re-adopted
			continue
		}
		evicted = append(evicted, e)
		if _, err := os.Stat(sp); err != nil {
			if os.IsNotExist(err) {
				err = fetchStub(ctx, s.tier, e, sp)
			}
			if err != nil {
				objstore.Discard(rebuilt)
				return err
			}
			rebuilt = append(rebuilt, sp)
		}
	}
	if err := objstore.Commit(rebuilt, nil); err != nil {
		return err
	}
	for _, e := range evicted {
		seg, err := OpenTieredStub(stubPath(s.segPath(e.Seq)), s.tier, e)
		if err != nil {
			return err
		}
		k := segKey{seg.Table(), seg.Partition()}
		s.segs[k] = append(s.segs[k], seg)
		if e.Seq >= s.nextSeq {
			s.nextSeq = e.Seq + 1
		}
	}
	if ms := s.manifest.MaxSeq(); ms >= s.nextSeq {
		s.nextSeq = ms + 1
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), segStubExt) && !live[de.Name()] {
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
	return nil
}

// TierSweep uploads eligible segments to the object store and releases
// their local data files. Policy: a segment is cold when a newer segment
// exists in its partition — the newest stays resident as the partition's
// hot tail; force widens the sweep to every eligible segment (the
// CLI/route trigger). The sweep is a batched pipeline — upload and verify
// a batch, one object-store barrier, one manifest record, the batch's
// stubs and one barrier, unlink the batch — and upholds the round
// invariant at each step: no manifest entry before its object is durable,
// no stub before its entry is, no unlink before its stub is. Failures are
// joined into the returned error and the sweep continues, so one bad
// segment or batch cannot shadow the rest of the node.
func (s *Store) TierSweep(ctx context.Context, force bool) (uploaded, evicted int, err error) {
	if s.tier == nil {
		return 0, 0, nil
	}
	defer hooked()()
	start := time.Now()
	s.mu.RLock()
	var cands []*Segment
	for _, list := range s.segs {
		for i, seg := range list {
			if (i < len(list)-1 || force) && seg.CanTier() {
				cands = append(cands, seg)
			}
		}
	}
	s.mu.RUnlock()
	var errs []error
	for len(cands) > 0 {
		n := min(tierBatch, len(cands))
		up, ev, berr := s.sweepBatch(ctx, cands[:n])
		uploaded, evicted, cands = uploaded+up, evicted+ev, cands[n:]
		if berr != nil {
			errs = append(errs, berr)
		}
	}
	if uploaded+evicted > 0 || len(errs) > 0 { // idle background passes are not sweeps
		s.SweepHist.Record(time.Since(start))
	}
	return uploaded, evicted, errors.Join(errs...)
}

// sweepBatch carries one batch through the pipeline.
func (s *Store) sweepBatch(ctx context.Context, cands []*Segment) (uploaded, evicted int, err error) {
	// Pin the data files of the segments still resident.
	batch := cands[:0:0]
	for _, seg := range cands {
		if seg.Tiered() {
			continue
		}
		local, aerr := seg.acquire()
		if aerr != nil {
			continue // retired while sweeping
		}
		if !local {
			seg.release(false)
			continue
		}
		batch = append(batch, seg)
	}
	defer func() {
		for _, seg := range batch {
			seg.release(true)
		}
	}()
	hookAll := func(stage string, segs []*Segment) {
		for _, seg := range segs {
			tierHook(stage, seg.Seq())
		}
	}

	// Upload and read-back verify what has no object copy yet; a failed
	// upload drops out of the batch.
	var errs []error
	var fresh []*Segment
	var entries []objstore.ManifestEntry
	var keys []string
	ready := batch[:0:0]
	for _, seg := range batch {
		if seg.Uploaded() {
			ready = append(ready, seg)
			continue
		}
		e, uerr := s.uploadSegment(ctx, seg)
		if uerr != nil {
			errs = append(errs, uerr)
			continue
		}
		fresh, entries, keys = append(fresh, seg), append(entries, e), append(keys, e.Key)
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
			for i, seg := range fresh {
				seg.SetTier(s.tier, keys[i])
			}
			hookAll("post-manifest", fresh)
			uploaded, ready = len(fresh), append(ready, fresh...)
		}
	}

	// Stubs for everything recorded, one barrier, then the unlinks.
	stubs := make([]string, 0, len(ready))
	for _, seg := range ready {
		if serr := seg.writeStub(); serr != nil {
			objstore.Discard(stubs)
			return uploaded, 0, errors.Join(append(errs, serr)...)
		}
		stubs = append(stubs, stubPath(seg.path))
	}
	if err := objstore.Commit(stubs, nil); err != nil {
		return uploaded, 0, errors.Join(append(errs, err)...)
	}
	hookAll("post-stub", ready)
	for _, seg := range ready {
		seg.markEvicted()
		s.tier.Evictions.Inc()
	}
	return uploaded, len(ready), errors.Join(errs...)
}

// uploadSegment streams seg to the object store and verifies the object
// by read-back, returning the manifest entry that will record it.
func (s *Store) uploadSegment(ctx context.Context, seg *Segment) (objstore.ManifestEntry, error) {
	key := s.tierObjKey(seg.Seq())
	tierHook("pre-upload", seg.Seq())
	if err := s.tier.UploadAndVerify(ctx, key, seg.f, seg.size); err != nil {
		return objstore.ManifestEntry{}, fmt.Errorf("persist: upload %s: %w", seg.path, err)
	}
	tierHook("post-upload", seg.Seq())
	root, _ := seg.MerkleRoot() // CanTier segments have one
	return objstore.ManifestEntry{
		Seq: seg.Seq(), Key: key, Size: seg.size, DataLen: seg.meta.DataLen,
		Rows: int64(seg.Rows()), Table: seg.Table(), Partition: seg.Partition(),
		Root: root,
	}, nil
}

// dropTiered removes retired segments' object-store presence: manifest
// entries first, with one record (so a crash cannot resurrect the objects
// as live data beyond one LWW-harmless window), then cached blocks, then
// the objects.
func (s *Store) dropTiered(ctx context.Context, segs []*Segment) error {
	if s.tier == nil {
		return nil
	}
	var seqs []uint64
	var keys []string
	for _, seg := range segs {
		if key := seg.TierKey(); key != "" {
			seqs, keys = append(seqs, seg.Seq()), append(keys, key)
		}
	}
	if err := s.manifest.Remove(seqs...); err != nil {
		return fmt.Errorf("persist: drop manifest entries %v: %w", seqs, err)
	}
	var errs []error
	for _, key := range keys {
		s.tier.Cache().DropKey(key)
		if err := s.tier.Store().Delete(ctx, key); err != nil {
			errs = append(errs, fmt.Errorf("persist: delete retired object %s: %w", key, err))
		}
	}
	return errors.Join(errs...)
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
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Seq < b.Seq
	})
	return out
}
