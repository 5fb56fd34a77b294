// Cursor pagination of row-returning results. A cursor encodes a data
// position (hour partition + last delivered clustering key + order
// tie-breaker), never server state, so pages resume correctly across
// server restarts, memtable flushes, and segment compaction, and
// concatenating pages reproduces the one-shot result byte for byte.
package server

import (
	"context"

	"hpclog/internal/api"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// pageLimit clamps a requested page size into the configured window.
func (s *Server) pageLimit(p *api.Page) int {
	limit := defaultPageLimit
	if p != nil && p.Limit > 0 {
		limit = p.Limit
	}
	if limit > s.cfg.MaxPageLimit {
		limit = s.cfg.MaxPageLimit
	}
	return limit
}

// pagedQuery dispatches a paginated query.Request; the result is a page
// of the op's row shape.
func (s *Server) pagedQuery(ctx context.Context, req api.QueryRequest) (any, *api.Error) {
	switch req.Op {
	case query.OpEvents:
		return s.eventsPage(ctx, req.Request, req.Page)
	case query.OpRuns:
		return s.runsPage(req.Request, req.Page)
	default:
		return nil, api.Errorf(api.CodeBadRequest,
			"op %q does not support pagination (only events and runs return row sets)", req.Op)
	}
}

// --- Events ---

// eventsPage serves one page of an events request off the tasks the
// one-shot and the stream run. The scan resumes at the cursor's hour and
// key (rows at that key the previous page already delivered are dropped
// by the order tie-breaker) and stops once the page is full, so a page
// costs the rows it returns, not the hour it sits in.
func (s *Server) eventsPage(ctx context.Context, req query.Request, page *api.Page) (any, *api.Error) {
	tasks, err := s.q.EventTasks(req)
	if err != nil {
		return nil, toAPIError(err)
	}
	var after *api.Cursor
	if page.Cursor != "" {
		cur, err := api.DecodeCursor(page.Cursor, "events")
		if err != nil {
			return nil, toAPIError(err)
		}
		after = &cur
	}
	limit := s.pageLimit(page)
	rs, err := pageChunks(s.eventChunks(ctx, tasks, after), limit)
	if err != nil {
		// Same classification as the one-shot path (toAPIError), so the
		// identical store failure gets the identical code and SDK retry
		// behavior whichever way the result is delivered.
		return nil, toAPIError(err)
	}
	if rs.rows == limit {
		hour, key, disc := rs.last()
		rs.cursor = api.Cursor{Op: "events", Hour: hour, Key: key, Disc: disc}.Encode()
	}
	return rs, nil
}

// --- Runs ---

// runsPage serves one page of a runs request. Run sets are small (one row
// per job), so the page is cut from the deterministically ordered
// one-shot result; the cursor still encodes a data position (start
// timestamp + job ID), so it survives restart and compaction.
func (s *Server) runsPage(req query.Request, page *api.Page) (any, *api.Error) {
	req.Op = query.OpRuns
	result, err := s.q.Execute(req)
	if err != nil {
		return nil, toAPIError(err)
	}
	runs, ok := result.([]query.RunRecord)
	if !ok {
		return nil, api.Errorf(api.CodeInternal, "runs result has unexpected shape %T", result)
	}
	var cur api.Cursor
	if page.Cursor != "" {
		if cur, err = api.DecodeCursor(page.Cursor, "runs"); err != nil {
			return nil, toAPIError(err)
		}
	}
	limit := s.pageLimit(page)
	out := &api.PageResult[query.RunRecord]{Items: make([]query.RunRecord, 0, limit)}
	for _, run := range runs {
		key := store.EncodeTS(run.Start) + ":" + run.JobID
		if page.Cursor != "" && !cur.After(key, "") {
			continue
		}
		out.Items = append(out.Items, run)
		if len(out.Items) == limit {
			out.NextCursor = api.Cursor{Op: "runs", Key: key}.Encode()
			break
		}
	}
	return out, nil
}

// --- CQL ---

// pagedCQL serves one page of a non-aggregate SELECT. The cursor encodes
// the last delivered clustering key plus the delivered-row count (to
// honor a statement-level LIMIT across pages); the next page re-plans the
// statement with the scan range narrowed to keys strictly after the
// cursor, so resumption costs one pruned partition scan, not a skip.
func (s *Server) pagedCQL(ctx context.Context, req api.CQLRequest, cl store.Consistency) (any, *api.Error) {
	var cur api.Cursor
	if req.Page.Cursor != "" {
		var err error
		if cur, err = api.DecodeCursor(req.Page.Cursor, "cql"); err != nil {
			return nil, toAPIError(err)
		}
	}
	sess := s.session(ctx, cl)
	p, last, err := sess.SelectPage(req.Query, s.pageLimit(req.Page), req.Page.Cursor != "", cur.Key, cur.N)
	if err != nil {
		return nil, toAPIError(err)
	}
	if p == nil {
		return &rowSet{shape: rowPage}, nil // the statement's LIMIT is spent
	}
	tasks, done, err := planChunks(sess.Executor(), p)
	if err != nil {
		return nil, toAPIError(err)
	}
	limit := p.Sel.Limit
	rs, err := pageChunks(tasks, limit)
	done()
	if err != nil {
		return nil, toAPIError(err)
	}
	if rs.rows == limit && !last {
		_, key, _ := rs.last()
		rs.cursor = api.Cursor{Op: "cql", Key: key, N: cur.N + int64(rs.rows)}.Encode()
	}
	return rs, nil
}
