package client

import (
	"context"
	"net/http"

	"hpclog/internal/api"
	"hpclog/internal/cql"
)

// Session executes CQL statements over the wire at a fixed consistency
// level, mirroring cql.Session for embedded use.
type Session struct {
	c *Client
	// Consistency is "ONE" (default), "QUORUM", or "ALL".
	Consistency string
}

// Session creates a CQL session on this client.
func (c *Client) Session(consistency string) *Session {
	return &Session{c: c, Consistency: consistency}
}

// Execute runs one CQL statement and returns the full result.
func (s *Session) Execute(ctx context.Context, stmt string) (*cql.Result, error) {
	var out cql.Result
	err := s.c.call(ctx, http.MethodPost, "/v1/cql",
		api.CQLRequest{Query: stmt, Consistency: s.Consistency}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Page runs a non-aggregate SELECT as one page of at most limit rows,
// returning the rows and the cursor resuming after them ("" when
// exhausted). A statement-level LIMIT is honored across pages.
func (s *Session) Page(ctx context.Context, stmt string, limit int, cursor string) ([]cql.ResultRow, string, error) {
	var pr api.PageResult[cql.ResultRow]
	err := s.c.call(ctx, http.MethodPost, "/v1/cql",
		api.CQLRequest{Query: stmt, Consistency: s.Consistency, Page: &api.Page{Limit: limit, Cursor: cursor}}, &pr)
	return pr.Items, pr.NextCursor, err
}

// Stream runs a non-aggregate SELECT in NDJSON streaming mode, calling
// fn once per row in clustering order.
func (s *Session) Stream(ctx context.Context, stmt string, fn func(cql.ResultRow) error) error {
	return stream(ctx, s.c, "/v1/cql/stream",
		api.CQLRequest{Query: stmt, Consistency: s.Consistency}, 0, fn)
}

// Each pages through the full SELECT result, calling fn once per row.
func (s *Session) Each(ctx context.Context, stmt string, pageSize int, fn func(cql.ResultRow) error) error {
	cursor := ""
	for {
		rows, next, err := s.Page(ctx, stmt, pageSize, cursor)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := fn(r); err != nil {
				return err
			}
		}
		if next == "" {
			return nil
		}
		cursor = next
	}
}
