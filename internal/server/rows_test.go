package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpclog/client"
	"hpclog/internal/api"
	"hpclog/internal/obs"
	"hpclog/internal/query"
)

// TestEventsOneShotAccounting: an events one-shot is served by the batch
// encoder, not by query.Engine.Execute, yet it must count, time and trace
// exactly like any other simple query — per_op["events"] and the simple
// counter move by one per request, the hpclog_query_* series see it, and
// its trace carries the op name and a query.exec stage.
func TestEventsOneShotAccounting(t *testing.T) {
	f := getFixture(t)
	_, ts := metricsFixture(t, time.Nanosecond)
	cli := client.New(ts.URL)
	ctx := context.Background()
	before, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	qc := query.Context{EventType: "MCE", From: f.cfg.Start.Unix(), To: f.cfg.Start.Add(f.cfg.Duration).Unix()}
	body, _ := json.Marshal(api.QueryRequest{Request: query.Request{Op: query.OpEvents, Context: qc}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set(api.RequestIDHeader, "events-accounting")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events one-shot: HTTP %d", resp.StatusCode)
	}
	after, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.PerOp["events"].Count - before.PerOp["events"].Count; n != 1 {
		t.Fatalf("per_op.events.count moved by %d for one one-shot, want 1", n)
	}
	if n := after.Queries.Simple - before.Queries.Simple; n != 1 {
		t.Fatalf("simple queries moved by %d for one one-shot, want 1", n)
	}

	text, err := cli.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `hpclog_query_ops_total{op="events"}`) {
		t.Fatal("hpclog_query_ops_total has no events series")
	}

	traces, err := cli.SlowQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var tr *obs.SlowTrace
	for i := range traces {
		if traces[i].RequestID == "events-accounting" {
			tr = &traces[i]
		}
	}
	if tr == nil {
		t.Fatal("the one-shot left no trace")
	}
	stages := map[string]bool{}
	for _, st := range tr.Stages {
		stages[st.Name] = true
	}
	if tr.Query != "op:events" || !stages["query.exec"] {
		t.Fatalf("trace query %q stages %v, want op:events with a query.exec stage", tr.Query, tr.Stages)
	}
}

// TestRowResultsConcurrent: requests on several goroutines share the
// chunk pool and the scan pool; each must still get its own rows whole.
func TestRowResultsConcurrent(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	qc := query.Context{From: f.cfg.Start.Unix(), To: f.cfg.Start.Add(f.cfg.Duration).Unix()}
	stmt := fmt.Sprintf("SELECT * FROM event_by_time WHERE partition = '%d:MCE'", f.cfg.Start.Unix()/3600)
	want, err := f.cli.Events(ctx, qc)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := f.cli.Session("ONE").Execute(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				var got []query.EventRecord
				var err error
				switch (g + i) % 4 {
				case 0:
					got, err = f.cli.Events(ctx, qc)
				case 1:
					err = f.cli.StreamEvents(ctx, qc, func(e query.EventRecord) error {
						got = append(got, e)
						return nil
					})
				case 2:
					err = f.cli.EachEvent(ctx, qc, 37, func(e query.EventRecord) error {
						got = append(got, e)
						return nil
					})
				default:
					res, err := f.cli.Session("ONE").Execute(ctx, stmt)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(res, wantRows) {
						t.Errorf("goroutine %d, round %d: CQL rows differ", g, i)
					}
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, round %d: %d events differ from the %d expected", g, i, len(got), len(want))
				}
			}
		}(g)
	}
	wg.Wait()
}
