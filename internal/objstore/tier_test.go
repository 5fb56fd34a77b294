package objstore

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// corruptingStore wraps an ObjectStore and flips one chosen byte of the
// object on every read — the single-bit-flip adversary the Merkle
// verification must always catch.
type corruptingStore struct {
	ObjectStore
	flipAt int64 // absolute object offset to flip; -1 disables
}

func (c *corruptingStore) ReadRange(ctx context.Context, key string, off, n int64) ([]byte, error) {
	b, err := c.ObjectStore.ReadRange(ctx, key, off, n)
	if err != nil {
		return nil, err
	}
	if c.flipAt >= off && c.flipAt < off+n {
		b[c.flipAt-off] ^= 0x01
	}
	return b, nil
}

// tierFixture uploads one multi-block object and returns everything a
// verified read needs.
func tierFixture(t *testing.T, fs ObjectStore, blockLen, nBlocks int) (key string, blocks [][]byte, tree *Tree) {
	t.Helper()
	key = "n/seg.bin"
	var payload []byte
	leaves := make([][HashLen]byte, nBlocks)
	blocks = make([][]byte, nBlocks)
	for i := range leaves {
		blk := bytes.Repeat([]byte{byte(i + 1)}, blockLen)
		blk[0] = byte(i) // make blocks distinct even at len 1
		blocks[i] = blk
		leaves[i] = HashBlock(blk)
		payload = append(payload, blk...)
	}
	tree, err := NewTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(context.Background(), key, bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	return key, blocks, tree
}

func TestTierReadBlockVerified(t *testing.T) {
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(fs, 1<<20)
	const blockLen, nBlocks = 64, 5
	key, blocks, tree := tierFixture(t, fs, blockLen, nBlocks)
	ctx := context.Background()

	for i := 0; i < nBlocks; i++ {
		data, release, err := tier.ReadBlock(ctx, key, i, int64(i*blockLen), blockLen, tree.Root(), tree)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !bytes.Equal(data, blocks[i]) {
			t.Fatalf("block %d bytes mismatch", i)
		}
		release()
	}
	if got := tier.FetchedBlocks.Load(); got != nBlocks {
		t.Fatalf("fetched %d blocks", got)
	}
	// Second pass is all cache hits: no new fetches.
	for i := 0; i < nBlocks; i++ {
		_, release, err := tier.ReadBlock(ctx, key, i, int64(i*blockLen), blockLen, tree.Root(), tree)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if got := tier.FetchedBlocks.Load(); got != nBlocks {
		t.Fatalf("cache hits refetched: %d", got)
	}
	if tier.FetchHist.Count() != nBlocks {
		t.Fatalf("fetch hist recorded %d samples", tier.FetchHist.Count())
	}
}

func TestTierAnyFlippedByteDetected(t *testing.T) {
	// Property: flipping ANY single byte of a fetched block surfaces
	// ErrIntegrity before the bytes reach a decoder, and the corrupt
	// bytes are never cached.
	fs, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const blockLen, nBlocks = 48, 3
	key, blocks, tree := tierFixture(t, fs, blockLen, nBlocks)
	cs := &corruptingStore{ObjectStore: fs, flipAt: -1}
	tier := NewTier(cs, 1<<20)
	ctx := context.Background()

	for off := int64(0); off < int64(nBlocks*blockLen); off++ {
		cs.flipAt = off
		blk := int(off) / blockLen
		_, _, err := tier.ReadBlock(ctx, key, blk, int64(blk*blockLen), blockLen, tree.Root(), tree)
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flip at %d: want ErrIntegrity, got %v", off, err)
		}
		// The corrupt block must not have been cached: a clean retry
		// re-fetches and succeeds.
		cs.flipAt = -1
		data, release, err := tier.ReadBlock(ctx, key, blk, int64(blk*blockLen), blockLen, tree.Root(), tree)
		if err != nil || !bytes.Equal(data, blocks[blk]) {
			t.Fatalf("clean retry after flip at %d: %v", off, err)
		}
		release()
		tier.Cache().Drop(key, 0, nBlocks*blockLen) // next iteration must hit the store again
	}
	if tier.VerifyFailures.Load() != int64(nBlocks*blockLen) {
		t.Fatalf("verify failures = %d, want %d", tier.VerifyFailures.Load(), nBlocks*blockLen)
	}
}

func TestTierWrongRootRejected(t *testing.T) {
	fs, _ := OpenFS(t.TempDir())
	tier := NewTier(fs, 1<<20)
	key, _, tree := tierFixture(t, fs, 32, 2)
	badRoot := tree.Root()
	badRoot[0] ^= 1
	_, _, err := tier.ReadBlock(context.Background(), key, 0, 0, 32, badRoot, tree)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity, got %v", err)
	}
}

func TestUploadAndVerifyMultiChunk(t *testing.T) {
	fs, _ := OpenFS(t.TempDir())
	tier := NewTier(fs, 0)
	// Larger than one verification chunk, not a multiple of it.
	size := int64(uploadChunk + uploadChunk/3)
	src := bytes.Repeat([]byte{0xC3}, int(size))
	if err := tier.UploadAndVerify(context.Background(), "n/big.seg", bytes.NewReader(src), size); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadRange(context.Background(), "n/big.seg", 0, size)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestOpenTierBackends(t *testing.T) {
	if _, err := Open(Config{Backend: "fs", Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Backend: "bogus"}); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if _, err := Open(Config{Backend: "s3"}); err == nil {
		t.Fatal("s3 backend without endpoint accepted")
	}
}
