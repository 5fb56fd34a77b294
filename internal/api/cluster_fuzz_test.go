package api

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzReplicateDecode feeds hostile replication and membership payloads
// through the strict cluster decoders. The contract under fuzz: never
// panic, never accept a payload that does not round-trip losslessly
// (silent truncation of a replica batch is data loss), and every
// rejection is a typed *api.Error.
func FuzzReplicateDecode(f *testing.F) {
	seeds := []string{
		`{"node":"n0","table":"event_by_time","pkey":"412:MCE","rows":[{"k":"a","ts":1,"c":{"x":"y"}}]}`,
		`{"node":"n1","table":"t","pkey":"p","rows":[{"k":"a","ts":1},{"k":"b","ts":2}]}`,
		`{"node":"","table":"t","pkey":"p","rows":[{"k":"a","ts":1}]}`,
		`{"node":"n0","table":"t","pkey":"p","rows":[]}`,
		`{"node":"n0","table":"t","pkey":"p","rows":[{"k":"","ts":1}]}`,
		`{"node":"n0","table":"t","pkey":"p","rows":[{"k":"a","ts":-5}]}`,
		`{"node":"n0","table":"t","pkey":"p","rows":[{"k":"a","ts":1}],"extra":true}`,
		`{"node":"n0","table":"t","pkey":"p","rows":[{"k":"a","ts":1}]}garbage`,
		`{"from":"n2","url":"http://h:1","write_ts":42}`,
		`{"from":"","write_ts":-1}`,
		`{"node":"n0","table":"t","pkey":"p","from":"zz","to":"aa"}`,
		`[]`, `null`, `0`, `"str"`, `{`, ``,
		strings.Repeat("[", 10000),
		`{"node":"` + strings.Repeat("n", 200) + `","table":"t","pkey":"p","rows":[{"k":"a","ts":1}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Replication path: accepted batches must round-trip.
		if req, apiErr := DecodeReplicateRequest(data); apiErr == nil {
			if req == nil {
				t.Fatalf("nil request with nil error")
			}
			if len(req.Rows) == 0 {
				t.Fatalf("accepted a replicate with no rows")
			}
			// Wire -> store -> wire must preserve every row: keys, stamps,
			// and each row's column set survive intact.
			rows := WireToRows(req.Rows)
			if len(rows) != len(req.Rows) {
				t.Fatalf("row count truncated: %d -> %d", len(req.Rows), len(rows))
			}
			back := RowsToWire(rows)
			for i := range back {
				if back[i].Key != req.Rows[i].Key || back[i].WriteTS != req.Rows[i].WriteTS {
					t.Fatalf("row %d identity changed in transit: %+v -> %+v", i, req.Rows[i], back[i])
				}
				if len(back[i].Cols) != len(req.Rows[i].Cols) {
					t.Fatalf("row %d columns truncated: %d -> %d", i, len(req.Rows[i].Cols), len(back[i].Cols))
				}
				for k, v := range req.Rows[i].Cols {
					if back[i].Cols[k] != v {
						t.Fatalf("row %d column %q changed: %q -> %q", i, k, v, back[i].Cols[k])
					}
				}
			}
			// And the accepted struct re-encodes to valid JSON that decodes
			// to the same request.
			enc, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if _, e2 := DecodeReplicateRequest(enc); e2 != nil {
				t.Fatalf("accepted request no longer decodes: %v", e2)
			}
		} else if apiErr.Code == "" {
			t.Fatalf("rejection without an error code")
		}

		// Shard scan/bounds and heartbeat paths: same no-panic, typed-error
		// contract.
		if _, e := DecodeShardScanRequest(data); e != nil && e.Code == "" {
			t.Fatalf("shard scan rejection without an error code")
		}
		if _, e := DecodeShardBoundsRequest(data); e != nil && e.Code == "" {
			t.Fatalf("shard bounds rejection without an error code")
		}
		if hb, e := DecodeHeartbeat(data); e == nil {
			if hb.From == "" || hb.WriteTS < 0 {
				t.Fatalf("accepted invalid heartbeat %+v", hb)
			}
		} else if e.Code == "" {
			t.Fatalf("heartbeat rejection without an error code")
		}
	})
}
