package objstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Merkle tree over the ordered blocks of one segment file.
//
// Leaves are SHA-256 over a domain-separated block payload (LeafDomain
// prefix), interior nodes SHA-256 over nodeDomain || left || right — the
// standard second-preimage hardening, so a leaf can never be reinterpreted
// as an interior node. An odd node at any level is promoted unchanged
// (no Bitcoin-style duplication, which admits two distinct trees with the
// same root).
//
// The segment writer stores the leaf array in the footer (it stays
// resident when the data file is evicted) and the root in the per-node
// manifest and the wire surface. A fetched block is verified end-to-end:
// hash the bytes, prove the leaf against the manifest-pinned root via the
// sibling path. That also catches a tampered resident leaf array: a proof
// built from forged leaves cannot reach the pinned root.

// HashLen is the byte length of every hash in the tree (SHA-256).
const HashLen = 32

// LeafDomain is the domain-separation prefix hashed before a leaf's block
// payload. The segment writer streams rows through a hasher seeded with
// it, so HashBlock(block bytes) equals the writer's incremental leaf.
var LeafDomain = []byte{0x00}

var nodeDomain = []byte{0x01}

// HashBlock computes the Merkle leaf for one block payload.
func HashBlock(data []byte) [HashLen]byte {
	h := sha256.New()
	h.Write(LeafDomain)
	h.Write(data)
	var out [HashLen]byte
	h.Sum(out[:0])
	return out
}

func hashNode(l, r [HashLen]byte) [HashLen]byte {
	h := sha256.New()
	h.Write(nodeDomain)
	h.Write(l[:])
	h.Write(r[:])
	var out [HashLen]byte
	h.Sum(out[:0])
	return out
}

// Tree is an immutable Merkle tree built from leaf hashes. All levels are
// retained (2N-1 hashes total), so proofs are O(log N) lookups.
type Tree struct {
	levels [][][HashLen]byte // levels[0] = leaves; last level has one node
}

// NewTree builds the tree over leaves (at least one). The slice is not
// retained.
func NewTree(leaves [][HashLen]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("objstore: merkle tree needs at least one leaf")
	}
	level := make([][HashLen]byte, len(leaves))
	copy(level, leaves)
	t := &Tree{levels: [][][HashLen]byte{level}}
	for len(level) > 1 {
		next := make([][HashLen]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // odd node promotes unchanged
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// N returns the leaf count.
func (t *Tree) N() int { return len(t.levels[0]) }

// Root returns the tree root.
func (t *Tree) Root() [HashLen]byte { return t.levels[len(t.levels)-1][0] }

// Proof is the sibling path proving one leaf against the root: Sibs[k]
// is the sibling consumed at level k's pairing (levels where the node
// rides up unpaired consume nothing, so len(Sibs) <= ceil(log2 N)).
type Proof struct {
	Index int // leaf index being proven
	N     int // total leaves of the tree the proof was built from
	Sibs  [][HashLen]byte
}

// Proof builds the inclusion proof for leaf i.
func (t *Tree) Proof(i int) (Proof, error) {
	if i < 0 || i >= t.N() {
		return Proof{}, fmt.Errorf("objstore: proof index %d outside [0,%d)", i, t.N())
	}
	p := Proof{Index: i, N: t.N()}
	idx := i
	for _, level := range t.levels[:len(t.levels)-1] {
		if idx%2 == 0 {
			if idx+1 < len(level) {
				p.Sibs = append(p.Sibs, level[idx+1])
			}
			// else: unpaired node, promotes without a sibling
		} else {
			p.Sibs = append(p.Sibs, level[idx-1])
		}
		idx /= 2
	}
	return p, nil
}

// VerifyProof checks that leaf at p.Index of a p.N-leaf tree hashes up
// through p.Sibs to root. It consumes exactly the siblings a correct
// proof carries; extra or missing siblings fail.
func VerifyProof(root, leaf [HashLen]byte, p Proof) bool {
	if p.Index < 0 || p.N <= 0 || p.Index >= p.N {
		return false
	}
	h := leaf
	idx, n := p.Index, p.N
	sib := 0
	for n > 1 {
		if idx%2 == 0 && idx+1 >= n {
			// Unpaired node promotes unchanged; no sibling consumed.
		} else {
			if sib >= len(p.Sibs) {
				return false
			}
			if idx%2 == 0 {
				h = hashNode(h, p.Sibs[sib])
			} else {
				h = hashNode(p.Sibs[sib], h)
			}
			sib++
		}
		idx /= 2
		n = (n + 1) / 2
	}
	return sib == len(p.Sibs) && h == root
}
