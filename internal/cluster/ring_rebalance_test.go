package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// sampleKeys gives a deterministic spread of partition-ish keys.
func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%d:MCE", i*37)
	}
	return keys
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRingReplicaFloorConcurrent hammers a ring with concurrent joins of a
// churn set while readers assert the replica-set floor: with a stable base
// of `base` members always present, no key's replica set may ever be
// observed smaller than min(RF, base), and never larger than RF.
func TestRingReplicaFloorConcurrent(t *testing.T) {
	const (
		rf      = 3
		base    = 4
		churn   = 3
		readers = 4
		ops     = 400
	)
	r := NewRing(rf, 16)
	for i := 0; i < base; i++ {
		r.AddNode(fmt.Sprintf("base%d", i))
	}
	keys := sampleKeys(32)

	var readerWG, mutatorWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					reps := r.Replicas(k)
					if len(reps) < minInt(rf, base) {
						t.Errorf("reader %d: key %q replica set shrank to %d < min(RF=%d, base=%d)",
							g, k, len(reps), rf, base)
						return
					}
					if len(reps) > rf {
						t.Errorf("reader %d: key %q replica set grew to %d > RF=%d", g, k, len(reps), rf)
						return
					}
					seen := map[string]bool{}
					for _, id := range reps {
						if seen[id] {
							t.Errorf("reader %d: key %q duplicate replica %s", g, k, id)
							return
						}
						seen[id] = true
					}
				}
			}
		}(g)
	}
	for m := 0; m < churn; m++ {
		mutatorWG.Add(1)
		go func(m int) {
			defer mutatorWG.Done()
			for i := 0; i < ops; i++ {
				r.AddNode(fmt.Sprintf("churn%d-%d", m, i%4))
			}
		}(m)
	}
	mutatorWG.Wait()
	close(stop)
	readerWG.Wait()

	// Quiesced: exactly min(rf, members) replicas for every key.
	for _, k := range keys {
		if got := len(r.Replicas(k)); got != minInt(rf, r.Size()) {
			t.Fatalf("quiesced: key %q has %d replicas, want %d", k, got, minInt(rf, r.Size()))
		}
	}
}

// TestRingJoinOrderDeterminism asserts two rings with identical membership
// built in different join orders agree on every replica set — the property
// wire-level clustering depends on, since every process computes placement
// locally from the seed list.
func TestRingJoinOrderDeterminism(t *testing.T) {
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%02d", i)
	}
	a := NewRing(3, 32)
	for _, id := range ids {
		a.AddNode(id)
	}
	b := NewRing(3, 32)
	rng := rand.New(rand.NewSource(7))
	shuffled := append([]string(nil), ids...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, id := range shuffled {
		b.AddNode(id)
	}
	for _, k := range sampleKeys(256) {
		ra, rb := a.Replicas(k), b.Replicas(k)
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("key %q: join-order dependent replicas: %v vs %v", k, ra, rb)
		}
	}
}

// TestRingTokenCollisionDeterminism forces the rare case the (token, owner)
// tie-break exists for: two vnodes at the same token. Whichever order the
// owners joined in, the walk order at the collision must be identical.
func TestRingTokenCollisionDeterminism(t *testing.T) {
	build := func(order []string) *Ring {
		r := NewRing(2, 1)
		for _, id := range order {
			r.AddNode(id)
		}
		// Plant a deliberate collision: both members get an extra vnode at
		// the same token. This bypasses HashKey, standing in for the 2^-64
		// natural collision.
		r.mu.Lock()
		r.ring = append(r.ring,
			vnode{token: Token(1 << 40), owner: order[0]},
			vnode{token: Token(1 << 40), owner: order[1]},
		)
		sort.Slice(r.ring, func(i, j int) bool {
			if r.ring[i].token != r.ring[j].token {
				return r.ring[i].token < r.ring[j].token
			}
			return r.ring[i].owner < r.ring[j].owner
		})
		r.mu.Unlock()
		return r
	}
	a := build([]string{"alpha", "beta"})
	b := build([]string{"beta", "alpha"})
	// A token just below the collision point must walk the colliding vnodes
	// in the same order on both rings.
	ra := a.replicasFromToken(Token(1<<40 - 1))
	rb := b.replicasFromToken(Token(1<<40 - 1))
	if fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatalf("token collision ordered by join order: %v vs %v", ra, rb)
	}
}

// TestRingMovedRangesExact pins down the rebalance contract: adding a node
// moves exactly the ranges the new node adopts — every other key's replica
// walk is the old walk with the node spliced in.
func TestRingMovedRangesExact(t *testing.T) {
	ids := []string{"n0", "n1", "n2", "n3", "n4"}
	r := NewRing(3, 16)
	for _, id := range ids {
		r.AddNode(id)
	}
	keys := sampleKeys(512)
	before := make(map[string][]string, len(keys))
	for _, k := range keys {
		before[k] = append([]string(nil), r.Replicas(k)...)
	}

	const joined = "nX"
	r.AddNode(joined)
	moved := 0
	for _, k := range keys {
		after := r.Replicas(k)
		// Splicing nX out of the new walk must leave a prefix of the old
		// walk: the only difference a join may introduce is nX displacing
		// the tail of the replica list.
		stripped := without(after, joined)
		if !isPrefix(stripped, before[k]) {
			t.Fatalf("join: key %q replicas %v (sans %s: %v) not a splice of %v",
				k, after, joined, stripped, before[k])
		}
		if len(stripped) != len(after) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("join of %s moved no ranges across %d sample keys", joined, len(keys))
	}
}

// TestRingOwnershipSumsToOne sanity-checks the status-endpoint balance
// figure.
func TestRingOwnershipSumsToOne(t *testing.T) {
	r := NewRing(3, 64)
	for i := 0; i < 5; i++ {
		r.AddNode(fmt.Sprintf("n%d", i))
	}
	shares := r.Ownership()
	if len(shares) != 5 {
		t.Fatalf("ownership has %d entries, want 5", len(shares))
	}
	sum := 0.0
	for id, s := range shares {
		if s <= 0 {
			t.Fatalf("node %s owns share %v <= 0", id, s)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ownership shares sum to %v, want ~1", sum)
	}
}

func without(list []string, id string) []string {
	out := make([]string, 0, len(list))
	for _, v := range list {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

func isPrefix(p, of []string) bool {
	if len(p) > len(of) {
		return false
	}
	for i := range p {
		if p[i] != of[i] {
			return false
		}
	}
	return true
}
