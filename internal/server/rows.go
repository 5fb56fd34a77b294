// Row results — events and CQL SELECT rows — leave the server without
// being built as records. A scan task (a time slice of an events scan, a
// clustering slice of a plan) encodes its rows straight off the store's
// batches into a chunk of its own, compute.StreamScan hands the chunks
// over in result order, and the one-shot envelope, the NDJSON stream and
// the cursor page each copy out the rows they take. A chunk records where
// every row ends — and, for a page, where its last row was read — so a
// LIMIT, a full page or a cursor always falls between two rows.
package server

import (
	"context"
	"errors"
	"sync"

	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/plan"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// chunk is the encoded rows of one scan task, back to back.
type chunk struct {
	b    []byte
	ends []int32 // ends[i] is where row i ends in b
	// last holds, when cursors is set, where the last row was read: its
	// clustering key, then from lastDisc on its order tie-breaker — a copy,
	// since the batch it came from dies with the task.
	last     []byte
	lastDisc int
	cursors  bool
	limit    int   // the most rows the task adds; 0 = no limit
	hour     int64 // an events task's hour, what its cursors name
	fields   []plan.Field
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// maxPooledChunk bounds the buffer a released chunk keeps.
const maxPooledChunk = 4 << 20

// errChunkFull ends a task whose chunk holds its row limit.
var errChunkFull = errors.New("chunk full")

// errEnough stops a scan whose result holds every row it takes.
var errEnough = errors.New("result complete")

func (c *chunk) release() {
	if cap(c.b) > maxPooledChunk {
		return
	}
	c.b, c.ends, c.last, c.fields = c.b[:0], c.ends[:0], c.last[:0], c.fields[:0]
	chunkPool.Put(c)
}

// add records the end of the row just encoded into b, read at (key, disc).
func (c *chunk) add(key, disc string) error {
	c.ends = append(c.ends, int32(len(c.b)))
	if c.cursors {
		c.last, c.lastDisc = append(append(c.last[:0], key...), disc...), len(key)
	}
	if c.limit > 0 && len(c.ends) >= c.limit {
		return errChunkFull
	}
	return nil
}

func (c *chunk) rows() int { return len(c.ends) }

// Rows implements compute.RowCounter.
func (c *chunk) Rows() int { return c.rows() }

// row returns the bytes of row i.
func (c *chunk) row(i int) []byte {
	lo := int32(0)
	if i > 0 {
		lo = c.ends[i-1]
	}
	return c.b[lo:c.ends[i]]
}

// scanChunks runs tasks on the scan pool, each encoding its rows into a
// chunk of its own — at most limit rows (0: all) — and hands the chunks
// to emit in task order. emit owns the chunks it gets; its error stops
// the scan and is returned, errEnough as nil.
func (s *Server) scanChunks(tasks []func(*chunk) error, limit int, emit func(*chunk) error) error {
	scan := make([]compute.ScanTask[*chunk], len(tasks))
	for i, task := range tasks {
		scan[i] = compute.ScanTask[*chunk]{Index: i, Run: func(yield func(*chunk) error) error {
			c := chunkPool.Get().(*chunk)
			c.limit, c.cursors = limit, false
			if err := task(c); err != nil && err != errChunkFull {
				c.release()
				return err
			}
			return yield(c)
		}}
	}
	err := compute.StreamScan(s.eng, scan, func(_ int, cs []*chunk) error {
		for _, c := range cs {
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err == errEnough {
		return nil
	}
	return err
}

// eventChunks makes chunk tasks of an events scan; after, when set,
// resumes strictly past a page cursor: earlier hours and slices are
// dropped and the cursor's own slice starts at its key.
func (s *Server) eventChunks(ctx context.Context, tasks []analytics.EventTask, after *api.Cursor) []func(*chunk) error {
	out := make([]func(*chunk) error, 0, len(tasks))
	for _, t := range tasks {
		resume := after != nil && t.Hour == after.Hour
		if after != nil && (t.Hour < after.Hour || resume && t.Range.To != "" && t.Range.To <= after.Key) {
			continue
		}
		if resume && after.Key > t.Range.From {
			t.Range.From = after.Key
		}
		out = append(out, func(c *chunk) error {
			c.hour = t.Hour
			return t.Run(ctx, s.db, func(r *analytics.EventRow) error {
				if resume && !after.After(r.Key, r.Disc) {
					return nil
				}
				c.b = api.AppendEventRow(c.b, r)
				return c.add(r.Key, r.Disc)
			})
		})
	}
	return out
}

// planChunks makes chunk tasks of a row-returning plan's scan; the
// caller calls done once they have run.
func planChunks(ex *plan.Executor, p *plan.Plan) (tasks []func(*chunk) error, done func(), err error) {
	rowTasks, done, err := ex.RowTasks(p)
	if err != nil {
		return nil, nil, err
	}
	tasks = make([]func(*chunk) error, len(rowTasks))
	for i, task := range rowTasks {
		tasks[i] = func(c *chunk) error {
			return task(func(b *store.Batch, j int) error {
				c.fields = p.Fields(c.fields[:0], b, j)
				c.b = api.AppendResultRow(c.b, b.Keys()[j], c.fields)
				return c.add(b.Keys()[j], "")
			})
		}
	}
	return tasks, done, nil
}

// scanPlan runs a row-returning plan's chunk tasks through scanChunks,
// each task stopping at the plan's LIMIT.
func (s *Server) scanPlan(ex *plan.Executor, p *plan.Plan, emit func(*chunk) error) error {
	tasks, done, err := planChunks(ex, p)
	if err != nil {
		return err
	}
	defer done()
	return s.scanChunks(tasks, p.Sel.Limit, emit)
}

// pageChunks runs tasks one after the other, each encoding at most the
// rows the page still lacks, and returns the page: a page reads the rows
// it returns, not a look-ahead's worth, and a full page ends on the last
// row of its last chunk.
func pageChunks(tasks []func(*chunk) error, limit int) (*rowSet, error) {
	rs := &rowSet{shape: rowPage}
	for _, task := range tasks {
		if rs.rows >= limit {
			break
		}
		c := chunkPool.Get().(*chunk)
		c.limit, c.cursors = limit-rs.rows, true
		if err := task(c); err != nil && err != errChunkFull {
			c.release()
			rs.release()
			return nil, err
		}
		if c.rows() == 0 {
			c.release()
			continue
		}
		rs.take(c, limit)
	}
	return rs, nil
}

// rowShape is the JSON around a row set's rows.
type rowShape int

const (
	rowArray rowShape = iota // [rows]: an events result
	rowCQL                   // {"rows":[rows]}, {} when empty: a cql.Result
	rowPage                  // {"items":[rows],"next_cursor":…}: an api.PageResult
)

// rowSet is a one-shot row result or a page: the chunks of its scan, cut
// after its first rows rows. It encodes as json.Marshal encodes the
// records it stands for.
type rowSet struct {
	shape  rowShape
	chunks []*chunk
	rows   int
	cursor string // a page's next cursor
}

// take adds c's rows, up to limit rows in all (0: no limit), and reports
// whether the set is full.
func (rs *rowSet) take(c *chunk, limit int) bool {
	rs.chunks = append(rs.chunks, c)
	rs.rows += c.rows()
	if limit > 0 && rs.rows >= limit {
		rs.rows = limit
		return true
	}
	return false
}

// last returns where a full page's last row was read — the last row of
// its last chunk (see pageChunks) — and the hour of that chunk.
func (rs *rowSet) last() (hour int64, key, disc string) {
	c := rs.chunks[len(rs.chunks)-1]
	return c.hour, string(c.last[:c.lastDisc]), string(c.last[c.lastDisc:])
}

func (rs *rowSet) release() {
	for _, c := range rs.chunks {
		c.release()
	}
	rs.chunks = nil
}

// AppendJSON implements api.RowSet.
func (rs *rowSet) AppendJSON(b []byte) []byte {
	switch rs.shape {
	case rowCQL:
		if rs.rows == 0 {
			return append(b, "{}"...)
		}
		b = append(b, `{"rows":`...)
	case rowPage:
		b = append(b, `{"items":`...)
	}
	b = append(b, '[')
	n := 0
	for _, c := range rs.chunks {
		for i := 0; i < c.rows() && n < rs.rows; i++ {
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, c.row(i)...)
			n++
		}
	}
	b = append(b, ']')
	switch rs.shape {
	case rowCQL:
		b = append(b, '}')
	case rowPage:
		if rs.cursor != "" {
			// A cursor is base64url: nothing in it needs escaping.
			b = append(b, `,"next_cursor":"`...)
			b = append(append(b, rs.cursor...), '"')
		}
		b = append(b, '}')
	}
	return b
}

// eventsOneShot answers an unpaginated events request: the rows of its
// scan, encoded as they are read, and counted, timed and traced like
// every other simple query.
func (s *Server) eventsOneShot(ctx context.Context, req query.Request) (any, *api.Error) {
	defer s.q.Track(ctx, query.OpEvents)()
	tasks, err := s.q.EventTasks(req)
	if err != nil {
		return nil, toAPIError(err)
	}
	rs := &rowSet{shape: rowArray}
	if err := s.scanChunks(s.eventChunks(ctx, tasks, nil), 0, func(c *chunk) error {
		rs.take(c, 0)
		return nil
	}); err != nil {
		rs.release()
		return nil, toAPIError(err)
	}
	return rs, nil
}

// cqlOneShot answers an unpaginated CQL statement: a row-returning SELECT
// encoded off its scan, anything else executed by the session.
func (s *Server) cqlOneShot(ctx context.Context, src string, cl store.Consistency) (any, *api.Error) {
	sess := s.session(ctx, cl)
	stmt, p, err := sess.Prepare(src)
	if err != nil {
		return nil, toAPIError(err)
	}
	if p == nil || !p.Paginated() {
		res, err := sess.Run(stmt, p)
		if err != nil {
			return nil, toAPIError(err)
		}
		return res, nil
	}
	rs := &rowSet{shape: rowCQL}
	if err := s.scanPlan(sess.Executor(), p, func(c *chunk) error {
		if rs.take(c, p.Sel.Limit) {
			return errEnough
		}
		return nil
	}); err != nil {
		rs.release()
		return nil, toAPIError(err)
	}
	return rs, nil
}
