package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"

	"hpclog/internal/api"
	"hpclog/internal/model"
)

func TestCQLSelectOverHTTP(t *testing.T) {
	f := getFixture(t)
	hour := model.HourOf(f.cfg.Start)
	q := fmt.Sprintf("SELECT source, amount FROM event_by_time WHERE partition = '%d:MEM_ECC' LIMIT 10",
		hour)
	res, err := f.cli.Session("QUORUM").Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Columns["source"] == "" {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestCQLDescribeOverHTTP(t *testing.T) {
	f := getFixture(t)
	res, err := f.cli.Session("").Execute(context.Background(), "DESCRIBE TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != len(model.AllTables) {
		t.Fatalf("tables = %v", res.Tables)
	}
}

func TestCQLErrorsOverHTTP(t *testing.T) {
	f := getFixture(t)
	ctx := context.Background()
	_, err := f.cli.Session("").Execute(ctx, "DROP TABLE events")
	if ae := errorOf(t, err); ae.Status != http.StatusBadRequest {
		t.Fatalf("bad statement: %+v", ae)
	}
	_, err = f.cli.Session("EVENTUAL").Execute(ctx, "DESCRIBE TABLES")
	if ae := errorOf(t, err); ae.Status != http.StatusBadRequest || ae.Code != api.CodeBadRequest {
		t.Fatalf("bad consistency: %+v", ae)
	}
	resp, err := http.Post(f.ts.URL+"/v1/cql", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}
