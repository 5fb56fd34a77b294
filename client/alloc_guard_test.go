//go:build !race

package client

import (
	"context"
	"net/http"
	"testing"

	"hpclog/internal/query"
)

// TestSDKDecodeAllocBudget is the wire codec's budget as an SDK caller
// sees it: one Events call returning 500 rows, transport and all, must
// stay under a sixth of the 19 allocations per row that decoding through
// reflection cost — the body becomes one string and every plain value a
// substring of it (see api.TestWireDecodeAllocBudget for the decoder
// alone). Excluded under -race.
func TestSDKDecodeAllocBudget(t *testing.T) {
	const rows = 500
	ts, _ := cannedEvents(t, rows)
	cli := New(ts.URL, WithRetries(0), WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	ctx := context.Background()
	qc := query.Context{EventType: "MEM_ECC", From: 1, To: 2}
	avg := testing.AllocsPerRun(20, func() {
		if events, err := cli.Events(ctx, qc); err != nil || len(events) != rows {
			t.Fatalf("%d events, %v", len(events), err)
		}
	})
	if perRow := avg / rows; perRow > 3 {
		t.Fatalf("Client.Events allocates %.2f objects per row, budget 3", perRow)
	}
}
