package store

import (
	"context"
	"sync"
)

// Hinted handoff and read repair — the two anti-entropy mechanisms
// Cassandra layers over the basic replication that our Repair (full
// anti-entropy) complements:
//
//   - hinted handoff: when a replica is down or fails at write time, the
//     coordinator stores a hint (the row plus its destination) and replays
//     it when the replica returns, so a brief outage does not require a
//     full repair;
//   - read repair: when a multi-replica read observes divergent replicas,
//     the merge of their streams reports each stale replica's rows, written
//     back to it in chunks while the read runs (see reconciling).

// hint is one row awaiting delivery to a down replica.
type hint struct {
	table string
	pkey  string
	rows  []Row
}

// hintLog accumulates hints per target node.
type hintLog struct {
	mu    sync.Mutex
	hints map[string][]hint // target node id -> pending hints
}

func newHintLog() *hintLog {
	return &hintLog{hints: make(map[string][]hint)}
}

func (h *hintLog) add(target string, hn hint) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hints[target] = append(h.hints[target], hn)
}

func (h *hintLog) take(target string) []hint {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := h.hints[target]
	delete(h.hints, target)
	return hs
}

func (h *hintLog) pending(target string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, hn := range h.hints[target] {
		n += len(hn.rows)
	}
	return n
}

// PendingHints reports the number of hinted rows awaiting delivery to a
// node.
func (db *DB) PendingHints(nodeID string) int {
	return db.hintLog.pending(nodeID)
}

// DeliverHints replays all hints queued for a node (call after marking it
// up) to its replica, local or remote. It returns the number of rows
// delivered.
func (db *DB) DeliverHints(nodeID string) (int, error) {
	r := db.replicaOf(nodeID)
	if r == nil {
		return 0, nil
	}
	delivered := 0
	hints := db.hintLog.take(nodeID)
	for i, hn := range hints {
		if err := r.apply(context.Background(), hn.table, hn.pkey, hn.rows, nil); err != nil {
			// Requeue the failed hint and every later one, and stop.
			for _, hn := range hints[i:] {
				db.hintLog.add(nodeID, hn)
			}
			return delivered, err
		}
		delivered += len(hn.rows)
	}
	if delivered > 0 {
		db.bumpGeneration()
	}
	return delivered, nil
}

// RecoverNode marks a node up and replays its hints — the normal
// node-return sequence.
func (db *DB) RecoverNode(nodeID string) (int, error) {
	db.ring.SetUp(nodeID, true)
	return db.DeliverHints(nodeID)
}
