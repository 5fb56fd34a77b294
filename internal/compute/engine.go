// Package compute is the framework's big data processing unit — the Apache
// Spark substitute of Section III-A — reduced to the one job shape the
// analytic server runs: a partition-parallel scan. A scan's tasks (one
// store partition, or one clustering-key slice of it) run on the engine's
// pool; StreamScan hands every task's items to the caller in task order,
// ScanFold folds each task into an accumulator of its own and merges the
// accumulators in task order. The Engine names the workers — one per
// storage node, as the paper pairs a Spark worker with every Cassandra
// node — sets the pool's width, and counts what the scans did.
package compute

import (
	"runtime"
	"sync"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers lists worker ids. Pinning a worker per storage node is done
	// by using the storage node ids here.
	Workers []string
	// Parallelism is the scan pool's width, the most tasks of a scan in
	// flight at once; <= 0 means runtime.GOMAXPROCS(0) at NewEngine,
	// sizing the pool to the machine.
	Parallelism int
}

// Engine is the scan pool's worker roster, width and counters.
type Engine struct {
	workers []string
	width   int // of the scan pool

	statsMu sync.Mutex
	stats   Stats
}

// Stats aggregates scan counters across all scans run on the engine.
type Stats struct {
	ScanTasks int // partition scan tasks executed by the scan planner
	ScanRows  int // rows streamed through the scan planner
	// Storage-pushdown counters, reported by the CQL query planner: how
	// many segment blocks pruned scans decoded vs. skipped via zone maps
	// and Bloom filters.
	BlocksRead   int
	BlocksPruned int
	// BlocksTaken counts segment blocks the count folds — the analytics
	// folds and the CQL planner's group rule — answered from their footer
	// statistics without reading them.
	BlocksTaken int
}

// NewEngine creates an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []string{"worker0"}
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: cfg.Workers, width: cfg.Parallelism}
}

// Workers returns the worker ids.
func (e *Engine) Workers() []string { return e.workers }

// Stats returns a snapshot of the scan counters.
func (e *Engine) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// NotePruning accumulates block-pruning counters from a pushed-down scan.
func (e *Engine) NotePruning(read, pruned int) {
	if read == 0 && pruned == 0 {
		return
	}
	e.statsMu.Lock()
	e.stats.BlocksRead += read
	e.stats.BlocksPruned += pruned
	e.statsMu.Unlock()
}

// NoteTaken accumulates blocks a fold took from their statistics.
func (e *Engine) NoteTaken(blocks int) {
	e.statsMu.Lock()
	e.stats.BlocksTaken += blocks
	e.statsMu.Unlock()
}

// ResetStats zeroes the scan counters.
func (e *Engine) ResetStats() {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stats = Stats{}
}
