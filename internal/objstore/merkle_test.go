package objstore

import "testing"

func testLeaves(n int) [][HashLen]byte {
	leaves := make([][HashLen]byte, n)
	for i := range leaves {
		leaves[i] = HashBlock([]byte{byte(i), byte(i >> 8), 0xAB})
	}
	return leaves
}

func TestMerkleProofAllShapes(t *testing.T) {
	// Every leaf of every tree size through a few non-powers-of-two must
	// prove against the root, and against no other root.
	for n := 1; n <= 33; n++ {
		leaves := testLeaves(n)
		tree, err := NewTree(leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.N() != n {
			t.Fatalf("n=%d: N()=%d", n, tree.N())
		}
		root := tree.Root()
		for i := 0; i < n; i++ {
			p, err := tree.Proof(i)
			if err != nil {
				t.Fatalf("n=%d proof(%d): %v", n, i, err)
			}
			if !VerifyProof(root, leaves[i], p) {
				t.Fatalf("n=%d: proof for leaf %d rejected", n, i)
			}
			// Wrong leaf must fail.
			wrong := leaves[i]
			wrong[0] ^= 1
			if VerifyProof(root, wrong, p) {
				t.Fatalf("n=%d: tampered leaf %d accepted", n, i)
			}
			// Wrong root must fail.
			badRoot := root
			badRoot[HashLen-1] ^= 1
			if VerifyProof(badRoot, leaves[i], p) {
				t.Fatalf("n=%d: proof for leaf %d accepted against wrong root", n, i)
			}
		}
	}
}

func TestMerkleOddPromotionDistinctTrees(t *testing.T) {
	// Promotion (not duplication) means a 3-leaf tree and the 4-leaf tree
	// with a duplicated last leaf have different roots.
	l := testLeaves(3)
	t3, _ := NewTree(l)
	t4, _ := NewTree(append(append([][HashLen]byte{}, l...), l[2]))
	if t3.Root() == t4.Root() {
		t.Fatal("duplicate-leaf tree collides with odd tree")
	}
}

func TestMerkleLeafNodeDomainSeparation(t *testing.T) {
	// A 2-leaf root fed back in as a "leaf" must not reproduce the
	// 2-leaf tree's root pairing (leaves and nodes hash differently).
	l := testLeaves(2)
	t2, _ := NewTree(l)
	if HashBlock(append(append([]byte{}, l[0][:]...), l[1][:]...)) == t2.Root() {
		t.Fatal("leaf hash collides with interior node hash")
	}
}

func TestMerkleEmptyRejected(t *testing.T) {
	if _, err := NewTree(nil); err == nil {
		t.Fatal("empty tree accepted")
	}
}
