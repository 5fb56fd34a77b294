package persist

import (
	"sync"

	"hpclog/internal/objstore"
)

// A round is the unit of durability of everything the store writes:
// flushes, compactions, footer stubs, the table catalog. It writes all of
// its files under temp names with no sync, crosses ONE barrier
// (objstore.Commit: fsync every file, rename all, one directory fsync),
// and only then acts on them. The round invariant: nothing is published
// to readers, dropped from a memtable, recorded in the tier manifest or
// unlinked before the barrier that covers it. A crash before the barrier
// leaves *.tmp garbage (swept at open) and every input intact.

// roundWorkers bounds the goroutines encoding one round's segments.
const roundWorkers = 4

// RoundCrashHook, when non-nil, is invoked at each boundary of a flush or
// compaction round with the stage name and the final paths of the segment
// files the round writes. The crash harness uses it to capture directory
// images mid-round and prove recovery from each. Stages:
//
//	written   — every file written under its temp name, nothing synced
//	synced    — every file fsynced, none renamed
//	renamed   — every file under its final name, directory not yet fsynced
//	published — barrier passed; segments visible, inputs retired
var RoundCrashHook func(stage string, paths []string)

// hookMu serializes rounds and sweeps across every store of the process
// while a crash hook is installed, so the directory image a hook copies
// is cut at one well-defined stage of one round and races no other node.
var hookMu sync.Mutex

// hooked must bracket every round and sweep: defer hooked()().
func hooked() (done func()) {
	if RoundCrashHook == nil && TierCrashHook == nil {
		return func() {}
	}
	hookMu.Lock()
	return hookMu.Unlock
}

func roundHook(stage string, paths []string) {
	if RoundCrashHook != nil {
		RoundCrashHook(stage, paths)
	}
}

// commitRound is the barrier of a segment round.
func commitRound(paths []string) error {
	roundHook("written", paths)
	return objstore.Commit(paths, func(stage string) { roundHook(stage, paths) })
}
