package store

// The memtable's batch put: a property test against a map oracle, and
// crash states between the commitlog append of an over-threshold batch
// and the return of the flush round it triggers.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpclog/internal/fsys/fsystest"
)

// TestPartitionPutMatchesOracle drives partition.put with random batches —
// ascending past the end, ascending but overlapping, shuffled, with keys
// repeated inside the batch at equal and at distinct write timestamps —
// interleaved with flush hand-overs that fail and merge back, and compares
// the memtable with a map that applies the same rows one by one,
// last write wins and the greater value winning a tie.
func TestPartitionPutMatchesOracle(t *testing.T) {
	valID := InternColumn("v")
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := newNode("n0", 1<<30)
		p := &partition{node: n, table: "t", key: "p"}
		oracle := make(map[string]Row)
		next, serial := 0, 0 // next fresh key, write serial number
		for op := 0; op < 60; op++ {
			if rng.Intn(6) == 0 {
				// A flush round takes the memtable, writers go on, the round
				// fails: the run comes back under the rows written since.
				if p.flushing == nil {
					p.beginFlush(1)
				} else {
					p.endFlush(false)
				}
				continue
			}
			batch := make([]Row, 1+rng.Intn(12))
			shape := rng.Intn(4)
			for i := range batch {
				k := next
				switch {
				case shape == 0: // fresh keys, ascending: the append path
					next++
				case rng.Intn(3) == 0 && i > 0: // repeat a key of this batch
					k = int(mustDecodeTS(t, batch[rng.Intn(i)].Key))
				default: // anywhere in the key space written so far, or just past it
					k = rng.Intn(next + 2)
					next = max(next, k+1)
				}
				serial++
				batch[i] = MakeRow(EncodeTS(int64(k)), int64(1+rng.Intn(6)), []Col{{ID: valID, Value: fmt.Sprint(serial)}})
			}
			switch shape {
			case 1:
				slices.SortStableFunc(batch, func(a, b Row) int { return strings.Compare(a.Key, b.Key) })
			case 2:
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			}
			given := slices.Clone(batch)
			p.put(batch, 0)
			if !reflect.DeepEqual(batch, given) {
				t.Fatalf("seed %d: put reordered the caller's batch, which the other replicas share", seed)
			}
			for _, r := range batch {
				if cur, ok := oracle[r.Key]; !ok || r.WriteTS > cur.WriteTS ||
					r.WriteTS == cur.WriteTS && r.ColID(valID) > cur.ColID(valID) {
					oracle[r.Key] = r
				}
			}
			if !ascending(p.mem) {
				t.Fatalf("seed %d op %d: memtable keys not strictly ascending", seed, op)
			}
		}
		if p.flushing != nil {
			p.endFlush(false)
		}
		want := make([]Row, 0, len(oracle))
		for _, r := range oracle {
			want = append(want, r)
		}
		slices.SortFunc(want, func(a, b Row) int { return strings.Compare(a.Key, b.Key) })
		if !reflect.DeepEqual(p.mem, want) {
			t.Fatalf("seed %d: memtable holds %d rows, oracle %d, or a different winner", seed, len(p.mem), len(want))
		}
		if n.appendPuts.Load() == 0 || n.mergePuts.Load() == 0 {
			t.Fatalf("seed %d: %d appends, %d merges: one path went untested", seed, n.appendPuts.Load(), n.mergePuts.Load())
		}
	}
}

// ascending reports whether rows are in strictly ascending key order.
func ascending(rows []Row) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key >= rows[i].Key {
			return false
		}
	}
	return true
}

func mustDecodeTS(t *testing.T, key string) int64 {
	t.Helper()
	ts, err := DecodeTS(key)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestInlineFlushCrashImages takes crash states at every stage of the
// flush round that one logged batch triggers on the write path when it
// fills its memtable — the batch is in the commitlog, its segment is
// being written, the PutBatch has not returned — and recovers from each
// kill -9 image and each power-loss and torn state: the rows acked before
// and the batch itself are all there, each key once, whichever of
// commitlog and segment supplies them. (A batch at the threshold is no
// logged batch: TestOwnRoundBatchCrashStates.)
func TestInlineFlushCrashImages(t *testing.T) {
	rec := fsystest.Install(t)
	dir := t.TempDir()
	cfg := crashCfg(dir)
	db, err := OpenDurable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fillDurable(t, db, "events", 2, 10) // acked, below the threshold, in memtables only
	before := db.StorageStats().Flushes
	batch := make([]Row, cfg.FlushThreshold-1) // logged, and fills the memtable
	for i := range batch {
		batch[i] = durableRow(int64(1000 + i))
	}
	images, power := captureRounds(t, rec, dir, func() error { return db.PutBatch("events", "part-00", batch, All) })
	if got := db.StorageStats().Flushes - before; got != int64(cfg.RF) {
		t.Fatalf("a filling batch flushed %d segments on %d replicas, want one each", got, cfg.RF)
	}
	want := readAll(t, db, "events")
	if len(want["part-00"]) != 10+len(batch) {
		t.Fatalf("part-00 holds %d rows, want %d", len(want["part-00"]), 10+len(batch))
	}
	for _, img := range images {
		checkRoundImage(t, img, cfg, want)
	}
	checkPowerStates(t, power, cfg, want)
}
