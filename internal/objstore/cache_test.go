package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewBlockCache(64) // room for two 32-byte blocks
	fetches := 0
	get := func(key string, block int) []byte {
		data, release, err := c.GetOrFetch(key, int64(block), func() ([]byte, error) {
			fetches++
			return bytes.Repeat([]byte{byte(block)}, 32), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return append([]byte{}, data...)
	}

	get("a", 0)
	get("a", 1)
	if fetches != 2 {
		t.Fatalf("fetches = %d", fetches)
	}
	get("a", 0) // hit, makes block 1 the LRU victim
	if fetches != 2 {
		t.Fatalf("hit refetched: %d", fetches)
	}
	get("a", 2) // evicts block 1
	get("a", 1) // must refetch
	if fetches != 4 {
		t.Fatalf("fetches = %d", fetches)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evicted == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Used > st.Budget {
		t.Fatalf("unpinned cache over budget: %+v", st)
	}
}

func TestCachePinnedNotEvicted(t *testing.T) {
	c := NewBlockCache(32)
	data, release, err := c.GetOrFetch("k", 0, func() ([]byte, error) {
		return bytes.Repeat([]byte{1}, 32), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// While pinned, inserting another block may exceed the budget but
	// must not evict (or corrupt) the pinned bytes.
	_, rel2, err := c.GetOrFetch("k", 1, func() ([]byte, error) {
		return bytes.Repeat([]byte{2}, 32), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	for _, b := range data {
		if b != 1 {
			t.Fatal("pinned block mutated")
		}
	}
	release()
	if st := c.Stats(); st.Used > st.Budget {
		t.Fatalf("budget not restored after release: %+v", st)
	}
}

func TestCacheZeroBudgetStillServes(t *testing.T) {
	c := NewBlockCache(0)
	for i := 0; i < 3; i++ {
		data, release, err := c.GetOrFetch("k", 0, func() ([]byte, error) {
			return []byte{9, 9}, nil
		})
		if err != nil || len(data) != 2 {
			t.Fatalf("get %d: %v %v", i, data, err)
		}
		release()
	}
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("zero-budget cache retained entries: %+v", st)
	}
}

func TestCacheFetchErrorNotCached(t *testing.T) {
	c := NewBlockCache(1024)
	boom := errors.New("boom")
	if _, _, err := c.GetOrFetch("k", 0, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	// Next fetch must run (errors are not cached).
	data, release, err := c.GetOrFetch("k", 0, func() ([]byte, error) { return []byte{1}, nil })
	if err != nil || len(data) != 1 {
		t.Fatalf("%v %v", data, err)
	}
	release()
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewBlockCache(1 << 20)
	var fetches atomic.Int64
	gate := make(chan struct{})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, release, err := c.GetOrFetch("k", 7, func() ([]byte, error) {
				fetches.Add(1)
				<-gate // hold every concurrent caller on one flight
				return []byte{7, 7, 7}, nil
			})
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(data, []byte{7, 7, 7}) {
				errs <- fmt.Errorf("bad data %v", data)
			}
			release()
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := fetches.Load(); n != 1 {
		t.Fatalf("single-flight ran %d fetches", n)
	}
}

// TestCacheDropKey: dropping a section's range of one object evicts its
// blocks and no other's — not another object's, not a sibling section's.
func TestCacheDropKey(t *testing.T) {
	c := NewBlockCache(1 << 20)
	for i := int64(0); i < 6; i++ { // two sections of three blocks: [0, 30) and [30, 60)
		_, release, _ := c.GetOrFetch("obj", 10*i, func() ([]byte, error) { return []byte{1, 2}, nil })
		release()
	}
	_, keepRel, _ := c.GetOrFetch("live", 0, func() ([]byte, error) { return []byte{3}, nil })
	c.Drop("obj", 0, 30)
	if st := c.Stats(); st.Entries != 4 || st.Used != 7 {
		t.Fatalf("dropping one section left %+v", st)
	}
	c.Drop("obj", 30, 60)
	if st := c.Stats(); st.Entries != 1 || st.Used != 1 {
		t.Fatalf("dropping both sections left %+v", st)
	}
	keepRel()
}
