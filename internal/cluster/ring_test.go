package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testRing(n, rf, vnodes int) *Ring {
	r := NewRing(rf, vnodes)
	for i := 0; i < n; i++ {
		r.AddNode(fmt.Sprintf("node%02d", i))
	}
	return r
}

func TestReplicasDistinctAndStable(t *testing.T) {
	r := testRing(8, 3, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("2017-08-23T%02d:MCE", i%24)
		reps := r.Replicas(key)
		if len(reps) != 3 {
			t.Fatalf("Replicas(%q) = %d nodes, want 3", key, len(reps))
		}
		seen := map[string]bool{}
		for _, id := range reps {
			if seen[id] {
				t.Fatalf("Replicas(%q) repeated node %s", key, id)
			}
			seen[id] = true
		}
		again := r.Replicas(key)
		for j := range reps {
			if reps[j] != again[j] {
				t.Fatalf("Replicas(%q) not deterministic", key)
			}
		}
	}
}

func TestReplicasSmallCluster(t *testing.T) {
	r := testRing(2, 3, 16)
	if got := len(r.Replicas("k")); got != 2 {
		t.Fatalf("Replicas on 2-node cluster = %d, want 2", got)
	}
	empty := NewRing(3, 16)
	if got := empty.Replicas("k"); got != nil {
		t.Fatalf("Replicas on empty ring = %v, want nil", got)
	}
	if empty.Primary("k") != "" {
		t.Fatal("Primary on empty ring should be empty")
	}
}

func TestBalance(t *testing.T) {
	// E4 invariant: with vnodes, partition load per node is balanced.
	// The paper's Fig 4 maps (hour, type) partitions over a small cluster.
	r := testRing(32, 1, 128)
	counts := map[string]int{}
	nkeys := 0
	for hour := 0; hour < 24*30; hour++ {
		for _, typ := range []string{"MCE", "GPU_XID", "LUSTRE", "DVS", "NETWORK", "KERNEL_PANIC", "MEM_ECC", "APP_ABORT"} {
			key := fmt.Sprintf("%d:%s", hour, typ)
			counts[r.Primary(key)]++
			nkeys++
		}
	}
	mean := float64(nkeys) / 32
	for id, c := range counts {
		ratio := float64(c) / mean
		if ratio > 1.6 || ratio < 0.4 {
			t.Errorf("node %s holds %.2fx mean load (%d partitions)", id, ratio, c)
		}
	}
	if len(counts) != 32 {
		t.Errorf("only %d of 32 nodes own partitions", len(counts))
	}
}

func TestVnodesImproveBalance(t *testing.T) {
	spread := func(vnodes int) float64 {
		r := testRing(16, 1, vnodes)
		counts := map[string]int{}
		n := 20000
		for i := 0; i < n; i++ {
			counts[r.Primary(fmt.Sprintf("key-%d", i))]++
		}
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		return float64(maxC) / (float64(n) / 16)
	}
	few, many := spread(1), spread(256)
	if many >= few {
		t.Errorf("vnodes=256 max/mean %.3f not better than vnodes=1 %.3f", many, few)
	}
}

func TestAddNodeIsIdempotent(t *testing.T) {
	r := testRing(4, 2, 32)
	if r.Size() != 4 {
		t.Fatalf("Size = %d", r.Size())
	}
	r.AddNode("node00") // duplicate join is a no-op
	if r.Size() != 4 {
		t.Fatalf("duplicate AddNode changed size to %d", r.Size())
	}
}

func TestSetUpMarksNodeDown(t *testing.T) {
	r := testRing(5, 3, 32)
	key := "10:LUSTRE"
	full := r.Replicas(key)
	r.SetUp(full[0], false)
	if got := r.Replicas(key); fmt.Sprint(got) != fmt.Sprint(full) {
		t.Fatalf("a down node changed ownership: %v, was %v", got, full)
	}
	if r.IsUp(full[0]) {
		t.Fatal("IsUp true for down node")
	}
	r.SetUp(full[0], true)
	if !r.IsUp(full[0]) {
		t.Fatal("IsUp false after recovery")
	}
	if r.IsUp("ghost") {
		t.Fatal("IsUp true for non-member")
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	f := func(s string) bool { return HashKey(s) == HashKey(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if HashKey("a") == HashKey("b") {
		t.Fatal("trivial collision")
	}
}

func TestNewRingPanics(t *testing.T) {
	for _, c := range []struct{ rf, vn int }{{0, 1}, {1, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d,%d) did not panic", c.rf, c.vn)
				}
			}()
			NewRing(c.rf, c.vn)
		}()
	}
}

func TestNodesSorted(t *testing.T) {
	r := testRing(6, 2, 8)
	ids := r.Nodes()
	if len(ids) != 6 {
		t.Fatalf("Nodes = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("Nodes not sorted: %v", ids)
		}
	}
}
