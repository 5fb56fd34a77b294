// NDJSON streaming of row-returning results. Streamed responses are fed
// directly from the compute scan planner (compute.StreamScan), so a large
// scan flows from storage iterators to the socket without ever
// materializing server-side; the lines concatenate to exactly the
// one-shot result, and a terminal api.StreamTrailer line carries the row
// count or the error that cut the stream short.
package server

import (
	"net/http"

	"hpclog/internal/api"
	"hpclog/internal/compute"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
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
		err = s.streamEvents(req.Context, nd)
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
	var line cql.ResultRow // one heap slot for the whole stream, not one per row
	err := s.session(r.Context(), cl).StreamSelect(req.Query, func(row cql.ResultRow) error {
		line = row
		return nd.emit(&line)
	})
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

// streamEvents streams an events result straight from the store: one
// scan task per hour bucket, fanned out on the compute scan pool
// (StreamScan delivers batches in hour order while later hours scan
// ahead), each task streaming its partition iterators row by row. The
// line order equals the one-shot result order.
func (s *Server) streamEvents(c query.Context, nd *ndjson) error {
	from, to := c.Window()
	if !to.After(from) {
		return api.Errorf(api.CodeBadRequest, "op \"events\" requires a non-empty [from, to) window")
	}
	spec := specFor(c)
	hours := model.HoursIn(from, to)
	tasks := make([]compute.ScanTask[query.EventRecord], 0, len(hours))
	for _, hour := range hours {
		lo, hi := hourWindow(hour, from, to)
		if !hi.After(lo) {
			continue
		}
		tasks = append(tasks, compute.ScanTask[query.EventRecord]{
			Index: len(tasks),
			Run: func(yield func(query.EventRecord) error) error {
				return s.scanHourMerged(spec, hour, model.EventTimeRange(lo, hi),
					func(_, _ string, rec query.EventRecord) error { return yield(rec) })
			},
		})
	}
	par, _ := s.q.ScanTuning()
	return compute.StreamScan(s.eng, compute.ScanOptions{Parallelism: par}, tasks,
		func(_ int, batch []query.EventRecord) error {
			for i := range batch {
				if err := nd.emit(&batch[i]); err != nil {
					return err
				}
			}
			return nil
		})
}

// scanHourMerged streams the rows of one hour bucket of an event spec
// whose clustering keys fall in rg, in result order: the hour's
// partitions (one per event type for all-type scans) are read through
// store iterators and merged lazily on (clustering key, type) — the same
// total order model.SortEvents imposes — so nothing is materialized beyond
// one row per open iterator. yield receives each record with its order
// key (clustering key, tie-breaker), which is what a page cursor encodes;
// an error from yield ends the scan and is returned as is.
func (s *Server) scanHourMerged(spec eventSpec, hour int64, rg store.Range, yield func(key, disc string, rec query.EventRecord) error) error {
	type head struct {
		it   store.RowIter
		pkey string
		disc string
		row  store.Row
		ok   bool
	}
	pkeys := spec.keysFor(hour)
	heads := make([]*head, 0, len(pkeys))
	defer func() {
		for _, h := range heads {
			h.it.Close()
		}
	}()
	for _, pkey := range pkeys {
		it, err := s.db.ScanPartition(spec.table, pkey, rg, store.One)
		if err != nil {
			return err
		}
		h := &head{it: it, pkey: pkey, disc: spec.disc(pkey)}
		heads = append(heads, h)
		if h.row, h.ok = it.Next(); !h.ok {
			// ok==false is exhausted *or* failed; a priming-read failure
			// must not pass off as an empty partition.
			if err := it.Err(); err != nil {
				return err
			}
		}
	}
	for {
		var min *head
		for _, h := range heads {
			if !h.ok {
				continue
			}
			if min == nil || h.row.Key < min.row.Key ||
				(h.row.Key == min.row.Key && h.disc < min.disc) {
				min = h
			}
		}
		if min == nil {
			break
		}
		e, err := spec.decode(min.pkey, min.row)
		if err != nil {
			return err
		}
		if spec.filterType == "" || string(e.Type) == spec.filterType {
			if err := yield(min.row.Key, min.disc, eventRecord(e)); err != nil {
				return err
			}
		}
		min.row, min.ok = min.it.Next()
		if !min.ok {
			if err := min.it.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
