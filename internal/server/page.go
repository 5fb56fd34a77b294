// Cursor pagination of row-returning results. A cursor encodes a data
// position (hour partition + last delivered clustering key + order
// tie-breaker), never server state, so pages resume correctly across
// server restarts, memtable flushes, and segment compaction, and
// concatenating pages reproduces the one-shot result byte for byte.
package server

import (
	"context"
	"errors"
	"time"

	"hpclog/internal/api"
	"hpclog/internal/cql"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// pageLimit clamps a requested page size into the configured window.
func (s *Server) pageLimit(p *api.Page) int {
	limit := s.cfg.DefaultPageLimit
	if p != nil && p.Limit > 0 {
		limit = p.Limit
	}
	if limit > s.cfg.MaxPageLimit {
		limit = s.cfg.MaxPageLimit
	}
	return limit
}

// pagedQuery dispatches a paginated query.Request; the result is an
// *api.PageResult of the op's row shape.
func (s *Server) pagedQuery(req api.QueryRequest) (any, *api.Error) {
	switch req.Op {
	case query.OpEvents:
		return s.eventsPage(req.Context, req.Page)
	case query.OpRuns:
		return s.runsPage(req.Request, req.Page)
	default:
		return nil, api.Errorf(api.CodeBadRequest,
			"op %q does not support pagination (only events and runs return row sets)", req.Op)
	}
}

// --- Events ---

// eventSpec describes how one events-request shape maps onto store
// partitions: which table, which partition keys per hour bucket, how a
// row decodes, and the order tie-breaker within equal clustering keys.
type eventSpec struct {
	table string
	// keysFor returns the hour's partition keys in canonical (type) order.
	keysFor func(hour int64) []string
	decode  func(pkey string, r store.Row) (model.Event, error)
	// disc extracts the order tie-breaker of a partition's rows: the event
	// type for hour-merged all-type scans, "" when the clustering key
	// already totally orders the partition set.
	disc func(pkey string) string
	// filterType drops events of other types post-decode (source+type
	// requests); "" keeps everything.
	filterType string
}

// specFor maps a query context onto its scan shape, mirroring the
// one-shot events dispatch in query.Engine exactly — same tables, same
// decodes — so paginated pages concatenate to the one-shot result.
func specFor(c query.Context) eventSpec {
	switch {
	case c.Source != "":
		return eventSpec{
			table:      model.TableEventByLoc,
			keysFor:    func(hour int64) []string { return []string{model.EventByLocKey(hour, c.Source)} },
			decode:     model.EventFromLocRow,
			disc:       func(string) string { return "" },
			filterType: c.EventType,
		}
	case c.EventType != "":
		typ := model.EventType(c.EventType)
		return eventSpec{
			table:   model.TableEventByTime,
			keysFor: func(hour int64) []string { return []string{model.EventByTimeKey(hour, typ)} },
			decode:  model.EventFromTimeRow,
			disc:    func(string) string { return "" },
		}
	default:
		return eventSpec{
			table: model.TableEventByTime,
			keysFor: func(hour int64) []string {
				keys := make([]string, len(model.EventTypes))
				for i, typ := range model.EventTypes {
					keys[i] = model.EventByTimeKey(hour, typ)
				}
				return keys
			},
			decode: model.EventFromTimeRow,
			disc: func(pkey string) string {
				typ, err := model.TypeFromKey(pkey)
				if err != nil {
					return ""
				}
				return string(typ)
			},
		}
	}
}

// eventRecord converts a model event into its wire record, the same
// mapping the one-shot path uses.
func eventRecord(e model.Event) query.EventRecord {
	return query.EventRecord{
		Time: e.Time.Unix(), Type: string(e.Type), Source: e.Source,
		Count: e.Count, Raw: e.Raw, Attrs: e.Attrs,
	}
}

// hourWindow clips [from, to) to hour bucket h.
func hourWindow(h int64, from, to time.Time) (time.Time, time.Time) {
	lo, hi := time.Unix(h*3600, 0).UTC(), time.Unix((h+1)*3600, 0).UTC()
	if from.After(lo) {
		lo = from
	}
	if to.Before(hi) {
		hi = to
	}
	return lo, hi
}

// errPageFull stops an hour scan once the page holds limit rows.
var errPageFull = errors.New("page full")

// eventsPage serves one page of an events request off the same lazy
// hour merge the NDJSON stream uses. The scan of the cursor's hour starts
// at the cursor's key (rows at that key which the previous page already
// delivered are dropped by the order tie-breaker) and stops at limit, so a
// page costs the rows it returns, not the hour it sits in.
func (s *Server) eventsPage(c query.Context, page *api.Page) (any, *api.Error) {
	from, to := c.Window()
	if !to.After(from) {
		return nil, api.Errorf(api.CodeBadRequest, "op \"events\" requires a non-empty [from, to) window")
	}
	var cur api.Cursor
	resume := page.Cursor != ""
	if resume {
		var err error
		if cur, err = api.DecodeCursor(page.Cursor, "events"); err != nil {
			return nil, toAPIError(err)
		}
	}
	limit := s.pageLimit(page)
	spec := specFor(c)
	out := &api.PageResult[query.EventRecord]{Items: make([]query.EventRecord, 0, limit)}
	for _, hour := range model.HoursIn(from, to) {
		if resume && hour < cur.Hour {
			continue
		}
		lo, hi := hourWindow(hour, from, to)
		if !hi.After(lo) {
			continue
		}
		rg := model.EventTimeRange(lo, hi)
		inCursorHour := resume && hour == cur.Hour
		if inCursorHour && cur.Key > rg.From {
			rg.From = cur.Key
		}
		err := s.scanHourMerged(spec, hour, rg, func(key, disc string, rec query.EventRecord) error {
			if inCursorHour && !cur.After(key, disc) {
				return nil
			}
			out.Items = append(out.Items, rec)
			if len(out.Items) == limit {
				out.NextCursor = api.Cursor{Op: "events", Hour: hour, Key: key, Disc: disc}.Encode()
				return errPageFull
			}
			return nil
		})
		if err == errPageFull {
			break
		}
		if err != nil {
			// Same classification as the one-shot path (toAPIError), so the
			// identical store failure gets the identical code and SDK retry
			// behavior whichever way the result is delivered.
			return nil, toAPIError(err)
		}
	}
	return out, nil
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
	rows, nextKey, more, err := s.session(ctx, cl).SelectPage(req.Query, s.pageLimit(req.Page), req.Page.Cursor != "", cur.Key, cur.N)
	if err != nil {
		return nil, toAPIError(err)
	}
	out := &api.PageResult[cql.ResultRow]{Items: rows}
	if more {
		out.NextCursor = api.Cursor{Op: "cql", Key: nextKey, N: cur.N + int64(len(rows))}.Encode()
	}
	return out, nil
}
