package compute

import (
	"fmt"
	"sync"
)

// The scan planner is the execution path of the analytic server's
// big-data operations: a scan fans per-partition streaming tasks out over
// one bounded worker pool while the calling goroutine takes the results in
// task order, so memory stays proportional to the look-ahead window
// (StreamScan) or to the aggregation state (ScanFold) rather than to the
// scanned data.

// ScanTask is one unit of a partition-parallel scan: typically one store
// partition, or one clustering-key slice of a partition when finer-grained
// parallelism is wanted. It streams the task's items through yield; it
// must stop and return yield's error as soon as yield fails.
type ScanTask[T any] func(yield func(T) error) error

// RowCounter is a scan item that stands for several rows — a chunk of
// them, already encoded, or a task's folded accumulator — and says how
// many, so that Stats.ScanRows counts rows, not items.
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

// StreamScan executes tasks on the engine's pool and hands each task's
// batch to emit in ascending task order (ordered merge). A task may run at
// most the engine's width positions ahead of the batch being emitted,
// bounding buffered results. emit runs on the calling goroutine. The first
// task or emit error (a panic is one) cancels the remaining work.
//
// Delivered batches are recycled: once emit returns, the batch's backing
// array goes back on a free list for the next task, so a scan's buffer
// footprint is the look-ahead window, not the row count. emit must copy
// out any values it wants to keep (appending the batch's elements into an
// accumulator — what every caller does — is a copy).
func StreamScan[T any](eng *Engine, tasks []ScanTask[T], emit func(batch []T) error) error {
	return orderedScan(eng, len(tasks), eng.width,
		func(i int, yield func(T) error) error { return tasks[i](yield) }, emit)
}

// scanState is what an ordered scan's workers and its caller share, under
// mu.
type scanState[T any] struct {
	workers  sync.WaitGroup
	mu       sync.Mutex
	cond     sync.Cond
	nextRun  int // next task position to claim
	nextEmit int // next task position to hand to emit
	// slots[pos % len(slots)] holds task pos's batch once it finished:
	// positions in flight lie within one window of nextEmit.
	slots []slot[T]
	free  [][]T // recycled batch arrays
	err   error
	rows  int
	done  int // tasks that ran to completion
}

type slot[T any] struct {
	batch []T
	ready bool
}

// fail records the first error and wakes everyone; mu is held.
func (s *scanState[T]) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
}

// orderedScan is the one scan pool: min(width, n) workers claim tasks 0..n-1
// in order, none more than window positions ahead of the task the calling
// goroutine waits on, and the caller hands each finished task's batch —
// what run(i, yield) yielded — to emit in task order.
func orderedScan[T any](eng *Engine, n, window int, run func(i int, yield func(T) error) error, emit func(batch []T) error) error {
	if n == 0 {
		return nil
	}
	var zero T
	_, counted := any(zero).(RowCounter)
	s := &scanState[T]{slots: make([]slot[T], min(window, n))}
	s.cond.L = &s.mu

	for range min(eng.width, n) {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			var batch []T
			yield := func(v T) error {
				batch = append(batch, v)
				return nil
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			for {
				// Claim the next task, but stay within the look-ahead
				// window so buffered batches stay bounded.
				for s.err == nil && s.nextRun < n && s.nextRun >= s.nextEmit+len(s.slots) {
					s.cond.Wait()
				}
				if s.err != nil || s.nextRun >= n {
					return
				}
				pos := s.nextRun
				s.nextRun++
				batch = nil
				if k := len(s.free); k > 0 {
					batch = s.free[k-1]
					s.free = s.free[:k-1]
				}
				s.mu.Unlock()

				err := safeRun(func() error { return run(pos, yield) })
				rows := len(batch)
				if counted {
					rows = 0
					for _, v := range batch {
						rows += any(v).(RowCounter).Rows()
					}
				}

				s.mu.Lock()
				if err != nil {
					s.fail(err)
					return
				}
				s.slots[pos%len(s.slots)] = slot[T]{batch, true}
				s.rows += rows
				s.done++
				if pos == s.nextEmit {
					s.cond.Broadcast()
				}
			}
		}()
	}

	s.mu.Lock()
	for s.err == nil && s.nextEmit < n {
		sl := &s.slots[s.nextEmit%len(s.slots)]
		if !sl.ready {
			s.cond.Wait()
			continue
		}
		b := sl.batch
		*sl = slot[T]{}
		s.mu.Unlock()
		err := safeRun(func() error { return emit(b) })
		// Recycle the delivered batch; drop element references first so
		// pooled arrays don't pin emitted data.
		clear(b)
		s.mu.Lock()
		if err != nil {
			s.fail(err)
			break
		}
		if s.nextRun < n { // a task yet to claim can reuse it
			s.free = append(s.free, b[:0])
		}
		s.nextEmit++
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.workers.Wait()
	eng.noteScan(s.done, s.rows)
	return s.err
}

// FoldTask is one unit of a ScanFold — typically one store partition, or
// one clustering-key slice of it: it folds its whole stream (rows, or
// batches of rows) into acc and reports the accumulator and how many rows
// it scanned.
type FoldTask[A any] func(acc A) (out A, rows int, err error)

// folded is a FoldTask's result as a scan item: its accumulator and the
// rows it stands for.
type folded[A any] struct {
	acc  A
	rows int
}

func (f folded[A]) Rows() int { return f.rows }

// ScanFold executes tasks on the engine's pool, each folding its stream into
// a fresh accumulator of its own, and merges the accumulators in task
// order as they arrive. Aggregation state is the only memory the scan
// holds, so this is the path of heat maps, histograms, distributions, word
// counts and CQL aggregates. Tasks are claimed without a look-ahead
// window, so a slow task never idles the pool. The in-order merge makes
// results deterministic even when the merge operation is not commutative;
// the reported row counts land in Stats.ScanRows. On error the result is a
// fresh accumulator, whatever was merged before.
func ScanFold[A any](eng *Engine, tasks []FoldTask[A], newAcc func() A, merge func(A, A) A) (A, error) {
	out := newAcc()
	err := orderedScan(eng, len(tasks), len(tasks),
		func(i int, yield func(folded[A]) error) error {
			acc, rows, err := tasks[i](newAcc())
			if err != nil {
				return err
			}
			return yield(folded[A]{acc, rows})
		},
		func(batch []folded[A]) error {
			for _, f := range batch {
				out = merge(out, f.acc)
			}
			return nil
		})
	if err != nil {
		return newAcc(), err
	}
	return out, nil
}
