package enginetest

import (
	"errors"
	"testing"

	"hpclog/internal/analytics"
	"hpclog/internal/api"
	"hpclog/internal/query"
)

// TestEngineCorpus runs every case of the engine-test table through both
// execution paths: directly against the serial query.Engine and over the
// wire through the analytic server backed by the partition-parallel
// engine. The harness asserts the two results byte-for-byte identical
// before each case's expectation runs.
func TestEngineCorpus(t *testing.T) {
	h := New(t)
	for _, c := range Cases(h) {
		t.Run(c.Name, func(t *testing.T) {
			pinAnswer(t, c.Name, h.Run(t, c))
		})
	}
}

// TestEveryOpCovered fails when a query.Op has no case in the table, so
// new operations cannot ship without engine-test coverage.
func TestEveryOpCovered(t *testing.T) {
	h := New(t)
	covered := opsCovered(Cases(h))
	for _, op := range query.AllOps() {
		if !covered[op] {
			t.Errorf("query.Op %q has no engine-test case; add one to Cases in cases.go", op)
		}
	}
}

// TestErrorParity checks that invalid requests fail identically on both
// paths — the wire layer must not mask or reshape engine errors — and
// with the error text pinned in testdata/answers.txt.
func TestErrorParity(t *testing.T) {
	h := New(t)
	from, to := h.Window()
	win := query.Context{From: from.Unix(), To: to.Unix()}
	bad := []query.Request{
		{Op: "no_such_op"},
		{Op: query.OpHeatmap}, // missing event type
		{Op: query.OpHeatmap, Context: query.Context{EventType: "MCE"}}, // empty window
		{Op: query.OpTE, Context: query.Context{EventType: "MCE"}},      // missing second type
		{Op: query.OpDistribution, Context: query.Context{EventType: "MCE", From: 1, To: 2}, Level: "galaxy"},
		{Op: query.OpSites, At: from.Unix()},                                 // missing event type
		{Op: query.OpWordCount, Context: query.Context{EventType: "LUSTRE"}}, // empty window
		{Op: query.OpEpisodes, Context: win},                                 // missing event type
		{Op: query.OpRunReport, Context: win},                                // missing app
		{Op: query.OpHistogram, BinSeconds: 1, // one bin past analytics.MaxBins
			Context: query.Context{EventType: "MCE", From: from.Unix(), To: from.Unix() + analytics.MaxBins + 1}},
	}
	for _, req := range bad {
		_, derr := h.Serial.Execute(req)
		if derr == nil {
			t.Fatalf("direct path accepted invalid request %+v", req)
		}
		_, err := h.HTTP(req)
		if err == nil {
			t.Fatalf("wire path accepted invalid request %+v", req)
		}
		if aerr := (*api.Error)(nil); !errors.As(err, &aerr) || aerr.Message != derr.Error() {
			t.Errorf("%+v: wire error %q, direct error %q", req, err, derr)
		}
		pinError(t, req, err)
	}
}
