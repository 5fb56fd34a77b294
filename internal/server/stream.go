// NDJSON streaming of row-returning results. Streamed responses are fed
// directly from the compute scan planner (compute.StreamScan), so a large
// scan flows from storage batches to the socket in chunks without ever
// materializing server-side; the lines concatenate to exactly the
// one-shot result, and a terminal api.StreamTrailer line carries the row
// count or the error that cut the stream short.
package server

import (
	"context"
	"net/http"

	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/query"
)

// ndjson writes one JSON document per line, deferring headers until the
// first line so pre-stream failures can still answer with a plain
// enveloped error and proper status code. Lines are encoded by the wire
// codec into one pooled buffer that goes to the socket every flushEvery
// rows. The creator must call release when the response is over.
type ndjson struct {
	w       http.ResponseWriter
	buf     *api.Buffer
	reqID   string
	started bool
	rows    int64
	pending int // lines in buf
}

func newNDJSON(w http.ResponseWriter, reqID string) *ndjson {
	return &ndjson{w: w, buf: api.GetBuffer(), reqID: reqID}
}

func (n *ndjson) release() { n.buf.Release() }

// begin commits the response to streaming: headers plus 200.
func (n *ndjson) begin() {
	if n.started {
		return
	}
	n.started = true
	h := n.w.Header()
	h.Set("Content-Type", api.MediaTypeNDJSON)
	h.Set(api.VersionHeader, protocolHeader)
	h.Set(api.RequestIDHeader, n.reqID)
	n.w.WriteHeader(http.StatusOK)
}

// flushEvery bounds how many lines buffer before an explicit flush.
const flushEvery = 256

// flush sends the buffered lines down the socket.
func (n *ndjson) flush() error {
	_, err := n.w.Write(n.buf.B)
	n.buf.B = n.buf.B[:0]
	n.pending = 0
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
	return err
}

// emit appends one data line. Passing a pointer to a row shape (see
// api.AppendJSON) keeps the line free of reflection and allocation. A
// write error — the client is gone — surfaces on the flush that hits it.
func (n *ndjson) emit(v any) error {
	n.begin()
	var err error
	if n.buf.B, err = api.AppendJSON(n.buf.B, v); err != nil {
		return err
	}
	n.buf.B = append(n.buf.B, '\n')
	n.rows++
	if n.pending++; n.pending >= flushEvery {
		return n.flush()
	}
	return nil
}

// lines writes the first rows rows of c as lines and releases c.
func (n *ndjson) lines(c *chunk, rows int) error {
	defer c.release()
	n.begin()
	for i := 0; i < rows; i++ {
		n.buf.B = append(append(n.buf.B, c.row(i)...), '\n')
		n.rows++
		if n.pending++; n.pending >= flushEvery {
			if err := n.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish terminates the stream with the trailer line.
func (n *ndjson) finish(err error) {
	n.begin()
	tr := api.StreamTrailer{Trailer: true, Rows: n.rows}
	if err != nil {
		tr.Err = toAPIError(err)
		tr.Err.RequestID = n.reqID
	}
	n.buf.B, _ = api.AppendJSON(n.buf.B, tr) // a trailer always marshals
	n.buf.B = append(n.buf.B, '\n')
	_ = n.flush()
}

// handleQueryStream answers POST /v1/query/stream: NDJSON rows for
// row-returning ops (events, runs).
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	var req api.QueryRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	nd := newNDJSON(w, reqID)
	defer nd.release()
	var err error
	switch req.Op {
	case query.OpEvents:
		err = s.streamEvents(r.Context(), req.Request, nd)
	case query.OpRuns:
		err = s.streamRuns(req.Request, nd)
	default:
		err = api.Errorf(api.CodeNotStreamable,
			"op %q does not stream (only events and runs return row sets)", req.Op)
	}
	if err != nil && !nd.started {
		s.writeV1(w, started, reqID, nil, toAPIError(err))
		return
	}
	nd.finish(err)
}

// handleCQLStream answers POST /v1/cql/stream: NDJSON result rows of a
// non-aggregate SELECT, straight off the plan executor's scan stream.
func (s *Server) handleCQLStream(w http.ResponseWriter, r *http.Request) {
	started := s.now()
	reqID := s.requestID(r)
	if perr := negotiate(r); perr != nil {
		s.writeV1(w, started, reqID, nil, perr)
		return
	}
	var req api.CQLRequest
	if aerr := s.decodeBody(w, r, &req); aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	cl, aerr := parseConsistency(req.Consistency)
	if aerr != nil {
		s.writeV1(w, started, reqID, nil, aerr)
		return
	}
	nd := newNDJSON(w, reqID)
	defer nd.release()
	sess := s.session(r.Context(), cl)
	p, err := sess.StreamSelect(req.Query)
	if err == nil {
		limit, taken := p.Sel.Limit, 0
		err = s.scanPlan(sess.Executor(), p, func(c *chunk) error {
			n := c.rows()
			if limit > 0 {
				n = min(n, limit-taken)
			}
			taken += n
			if err := nd.lines(c, n); err != nil {
				return err
			}
			if limit > 0 && taken >= limit {
				return errEnough
			}
			return nil
		})
	}
	if err != nil && !nd.started {
		if err == cql.ErrNotStreamable {
			s.writeV1(w, started, reqID, nil, api.Errorf(api.CodeNotStreamable, "%v", err))
		} else {
			s.writeV1(w, started, reqID, nil, toAPIError(err))
		}
		return
	}
	nd.finish(err)
}

// streamRuns streams the runs result. Run sets are one row per job —
// small — so they stream from the one-shot result.
func (s *Server) streamRuns(req query.Request, nd *ndjson) error {
	req.Op = query.OpRuns
	result, err := s.q.Execute(req)
	if err != nil {
		return err
	}
	runs, ok := result.([]query.RunRecord)
	if !ok {
		return api.Errorf(api.CodeInternal, "runs result has unexpected shape %T", result)
	}
	for i := range runs {
		if err := nd.emit(&runs[i]); err != nil {
			return err
		}
	}
	return nil
}

// streamEvents streams an events result straight off its scan: the
// one-shot path's tasks, fanned out on the compute scan pool, their chunks
// written as lines in result order while later slices scan ahead.
func (s *Server) streamEvents(ctx context.Context, req query.Request, nd *ndjson) error {
	tasks, err := s.q.EventTasks(req)
	if err != nil {
		return err
	}
	return s.scanChunks(s.eventChunks(ctx, tasks, nil), 0, func(c *chunk) error {
		return nd.lines(c, c.rows())
	})
}
