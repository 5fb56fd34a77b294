// Package cluster provides the masterless distributed-systems substrate
// underneath the NoSQL store: a consistent-hash ring with virtual nodes,
// replica placement, and node liveness tracking.
//
// The design mirrors Cassandra's ring (Section II-A of the paper): every
// node plays an identical role, a partition's hash key maps it to a point
// on the ring, and the partition is stored on the next RF distinct nodes
// walking clockwise. Virtual nodes (vnodes) smooth the load so the
// max/mean partition count per node stays close to 1.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Token is a position on the hash ring.
type Token uint64

// HashKey maps a partition key to its ring token. FNV-64a is followed by a
// splitmix64 finalizer: FNV alone avalanches poorly on the short, similar
// keys the data model produces (e.g. "412:MCE"), which skews ring balance.
func HashKey(key string) Token {
	h := fnv.New64a()
	h.Write([]byte(key))
	return Token(mix64(h.Sum64()))
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

type vnode struct {
	token Token
	owner string
}

// Ring is a consistent-hash ring with virtual nodes and replication.
// All methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	rf     int
	vnodes int
	ring   []vnode // sorted by token
	up     map[string]bool
}

// NewRing creates a ring with the given replication factor and number of
// virtual nodes per physical node. rf and vnodes must be >= 1.
func NewRing(rf, vnodes int) *Ring {
	if rf < 1 {
		panic(fmt.Sprintf("cluster: replication factor %d < 1", rf))
	}
	if vnodes < 1 {
		panic(fmt.Sprintf("cluster: vnodes %d < 1", vnodes))
	}
	return &Ring{rf: rf, vnodes: vnodes, up: make(map[string]bool)}
}

// ReplicationFactor returns the configured replication factor.
func (r *Ring) ReplicationFactor() int { return r.rf }

// AddNode joins a node to the ring, claiming vnode positions derived from
// the node id. Adding an existing node is a no-op.
func (r *Ring) AddNode(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.up[id]; ok {
		return
	}
	r.up[id] = true
	for v := 0; v < r.vnodes; v++ {
		t := HashKey(fmt.Sprintf("%s#%d", id, v))
		r.ring = append(r.ring, vnode{token: t, owner: id})
	}
	// Total order (token, owner): two vnodes hashing to the same token —
	// astronomically rare but possible — would otherwise be ordered by
	// sort.Slice's unstable whim, and two rings built with different join
	// orders could disagree on replica sets for keys landing on the
	// collision. Every process in a cluster must compute identical
	// placement from the same membership, whatever order nodes joined in.
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].token != r.ring[j].token {
			return r.ring[i].token < r.ring[j].token
		}
		return r.ring[i].owner < r.ring[j].owner
	})
}

// SetUp marks a node as up (true) or down (false) without changing ring
// ownership.
func (r *Ring) SetUp(id string, up bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.up[id]; ok {
		r.up[id] = up
	}
}

// IsMember reports whether the node has joined the ring, up or down.
func (r *Ring) IsMember(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.up[id]
	return ok
}

// IsUp reports whether the node is a member and currently marked up.
func (r *Ring) IsUp(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.up[id]
}

// Nodes returns the ids of all member nodes in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.up))
	for id := range r.up {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Size returns the number of member nodes.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.up)
}

// Replicas returns the RF distinct nodes responsible for the partition key,
// in preference order (the first is the primary). Fewer than RF nodes are
// returned if the cluster is smaller than RF.
func (r *Ring) Replicas(key string) []string {
	return r.replicasFromToken(HashKey(key))
}

func (r *Ring) replicasFromToken(t Token) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.ring) == 0 {
		return nil
	}
	want := r.rf
	if n := len(r.up); want > n {
		want = n
	}
	// First vnode with token >= t, wrapping.
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].token >= t })
	out := make([]string, 0, want)
	seen := make(map[string]bool, want)
	for n := 0; n < len(r.ring) && len(out) < want; n++ {
		v := r.ring[(i+n)%len(r.ring)]
		if !seen[v.owner] {
			seen[v.owner] = true
			out = append(out, v.owner)
		}
	}
	return out
}

// Primary returns the first replica for the key, or "" on an empty ring.
func (r *Ring) Primary(key string) string {
	reps := r.Replicas(key)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Ownership returns, per member node, the fraction of the token space it
// owns as primary: the sum of the arcs ending at each of its vnodes. The
// fractions sum to 1 on a non-empty ring. This is the ring-balance figure
// surfaced by the /v1/cluster status endpoint.
func (r *Ring) Ownership() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.up))
	for id := range r.up {
		out[id] = 0
	}
	if len(r.ring) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float64
	for i, v := range r.ring {
		prev := r.ring[(i+len(r.ring)-1)%len(r.ring)].token
		arc := uint64(v.token) - uint64(prev) // wraps correctly for i==0
		if len(r.ring) == 1 {
			arc = ^uint64(0)
		}
		out[v.owner] += float64(arc) / whole
	}
	return out
}
