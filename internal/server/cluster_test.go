package server

import (
	"context"
	"reflect"
	"testing"

	"hpclog/internal/api"
	"hpclog/internal/model"
	"hpclog/internal/query"
	"hpclog/internal/store"
)

// TestShardScanAnswersWhilePublicStreamsSaturated: the shard scan behind
// every remote Get sits under the cluster limiter, so a peer whose public
// stream slots are all taken still serves a coordinator's row read.
func TestShardScanAnswersWhilePublicStreamsSaturated(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	l := f.srv.limiters["stream"]
	for i := 0; i < streamInFlight; i++ {
		if !l.acquire() {
			t.Fatal("stream limiter already in use")
		}
		defer l.release()
	}
	err := f.cli.StreamEvents(ctx, query.Context{}, func(query.EventRecord) error { return nil })
	if e := errorOf(t, err); e.Code != api.CodeOverloaded {
		t.Fatalf("public stream with every slot taken: %v, want overloaded", e)
	}

	node := f.db.NodeIDs()[0]
	n, err := f.db.LocalReplica(node)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := n.PartitionKeys(ctx, model.TableEventByTime)
	if err != nil || len(keys) == 0 {
		t.Fatalf("partition keys of %s: %v, %v", node, keys, err)
	}
	it, err := n.Batches(ctx, model.TableEventByTime, keys[0], store.Range{})
	if err != nil {
		t.Fatal(err)
	}
	var want []store.Row
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		for i := range b.Len() {
			want = append(want, b.Row(i).Clone())
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	var got []store.Row
	err = f.cli.ShardScan(ctx, api.ShardScanRequest{Node: node, Table: model.TableEventByTime, PKey: keys[0]},
		func(w api.WireRow) error {
			got = append(got, w.Row())
			return nil
		})
	if err != nil {
		t.Fatalf("shard scan with public streams saturated: %v", err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("shard scan: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].WriteTS != want[i].WriteTS ||
			!reflect.DeepEqual(got[i].ColumnsMap(), want[i].ColumnsMap()) {
			t.Fatalf("row %d: %s@%d, want %s@%d", i, got[i].Key, got[i].WriteTS, want[i].Key, want[i].WriteTS)
		}
	}
}
