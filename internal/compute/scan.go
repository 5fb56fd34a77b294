package compute

import (
	"fmt"
	"sync"
)

// The scan planner is the execution path of the analytic server's
// big-data operations: a scan fans per-partition streaming tasks out over
// a bounded worker pool and merges results in partition order, so memory
// stays proportional to the fan-out window (StreamScan) or to the
// aggregation state (ScanFold) rather than to the scanned data.

// ScanTask is one unit of a partition-parallel scan: typically one store
// partition, or one clustering-key slice of a partition when finer-grained
// parallelism is wanted. Run streams the task's items through yield; it
// must stop and return yield's error as soon as yield fails.
type ScanTask[T any] struct {
	// Index is the task's position in the scan's global order; StreamScan
	// emits batches in ascending Index order.
	Index int
	// Run streams the task's items.
	Run func(yield func(T) error) error
}

// RowCounter is a scan item that stands for several rows — a chunk of
// them, already encoded — and says how many, so that Stats.ScanRows
// counts rows, not items.
type RowCounter interface{ Rows() int }

// noteScan accumulates into the engine's counters.
func (e *Engine) noteScan(tasks, rows int) {
	e.statsMu.Lock()
	e.stats.ScanTasks += tasks
	e.stats.ScanRows += rows
	e.statsMu.Unlock()
}

// safeRun converts panics in task bodies into errors so a bad record
// cannot take down the whole engine.
func safeRun(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("compute: task panic: %v", r)
		}
	}()
	return f()
}

// StreamScan executes tasks on the engine's pool and delivers each task's
// batch to emit in ascending task order (ordered merge). A task may run at
// most the engine's width positions ahead of the emit cursor, bounding
// buffered results. emit runs on one goroutine at a time and must not be
// called concurrently by the caller elsewhere. The first task or emit error
// cancels the remaining work.
//
// Delivered batches are recycled: once emit returns, the batch's backing
// array goes back on a free list for the next task, so a scan's buffer
// footprint is the look-ahead window, not the row count. emit must copy
// out any values it wants to keep (appending the batch's elements into an
// accumulator — what every caller does — is a copy).
func StreamScan[T any](eng *Engine, tasks []ScanTask[T], emit func(index int, batch []T) error) error {
	if len(tasks) == 0 {
		return nil
	}
	par := min(eng.width, len(tasks))

	var zero T
	_, counted := any(zero).(RowCounter)
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		nextRun  int // next task position to claim
		nextEmit int // next task position to hand to emit
		ready    = make(map[int][]T, par)
		free     [][]T // recycled batch arrays
		firstErr error
		rows     int
		done     int // tasks that ran to completion
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cond.Broadcast()
	}

	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				// Claim the next task, but stay within the look-ahead
				// window so buffered batches stay bounded.
				for firstErr == nil && nextRun < len(tasks) && nextRun >= nextEmit+par {
					cond.Wait()
				}
				if firstErr != nil || nextRun >= len(tasks) {
					mu.Unlock()
					return
				}
				pos := nextRun
				nextRun++
				var batch []T
				if n := len(free); n > 0 {
					batch = free[n-1][:0]
					free = free[:n-1]
				}
				mu.Unlock()

				err := safeRun(func() error {
					return tasks[pos].Run(func(v T) error {
						batch = append(batch, v)
						return nil
					})
				})
				if err != nil {
					fail(err)
					return
				}

				n := len(batch)
				if counted {
					n = 0
					for _, v := range batch {
						n += any(v).(RowCounter).Rows()
					}
				}
				mu.Lock()
				ready[pos] = batch
				rows += n
				done++
				// Drain every consecutive ready batch from the emit
				// cursor. Only the worker observing pos == nextEmit
				// drains, so emit is serialized.
				for firstErr == nil {
					b, ok := ready[nextEmit]
					if !ok {
						break
					}
					delete(ready, nextEmit)
					at := nextEmit
					mu.Unlock()
					if err := emit(at, b); err != nil {
						fail(err)
						return
					}
					mu.Lock()
					// Recycle the delivered batch; drop element references
					// first so pooled arrays don't pin emitted data.
					clear(b)
					free = append(free, b[:0])
					nextEmit++
					cond.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	eng.noteScan(done, rows)
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// FoldTask is one unit of a ScanFold — typically one store partition, or
// one clustering-key slice of it: it folds its whole stream (rows, or
// batches of rows) into acc and reports the accumulator and how many rows
// it scanned.
type FoldTask[A any] func(acc A) (out A, rows int, err error)

// ScanFold executes tasks on the engine's pool, each folding its stream into
// a fresh accumulator of its own, then merges the accumulators in task
// order. Aggregation state is the only memory the scan holds, so this is
// the path of heat maps, histograms, distributions, word counts and CQL
// aggregates. The in-order merge makes results deterministic even when
// the merge operation is not commutative; the reported row counts land in
// Stats.ScanRows.
func ScanFold[A any](eng *Engine, tasks []FoldTask[A], newAcc func() A, merge func(A, A) A) (A, error) {
	out := newAcc()
	if len(tasks) == 0 {
		return out, nil
	}
	par := min(eng.width, len(tasks))
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		rows     int
		done     int
	)
	accs := make([]A, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= len(tasks) {
					mu.Unlock()
					return
				}
				pos := next
				next++
				mu.Unlock()

				var acc A
				n := 0
				err := safeRun(func() (err error) {
					acc, n, err = tasks[pos](newAcc())
					return err
				})
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				accs[pos] = acc
				rows += n
				done++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	eng.noteScan(done, rows)
	if firstErr != nil {
		return out, firstErr
	}
	for _, a := range accs {
		out = merge(out, a)
	}
	return out, nil
}
