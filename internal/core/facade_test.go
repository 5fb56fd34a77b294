package core

import (
	"strings"
	"testing"
	"time"

	"hpclog/internal/cql"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func TestRefreshSynopsisThroughFacade(t *testing.T) {
	fw, cfg, corpus := testFramework(t)
	if err := fw.Loader.LoadEvents(corpus.Events); err != nil {
		t.Fatal(err)
	}
	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)
	if err := fw.RefreshSynopsis(from, to); err != nil {
		t.Fatal(err)
	}
	sess := &cql.Session{DB: fw.DB, CL: fw.Loader.CL}
	res, err := sess.Execute("SELECT count FROM eventsynopsis WHERE partition = 'LUSTRE'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("synopsis empty after refresh")
	}
	for _, r := range res.Rows {
		if r.Columns["count"] == "" || strings.HasPrefix(r.Columns["count"], "-") {
			t.Fatalf("bad synopsis row %+v", r)
		}
	}
}

func TestImportCorpusReportsUnmatched(t *testing.T) {
	fw, err := New(Options{Store: store.Config{Nodes: 2, RF: 1}, MachineNodes: topology.NodesPerCabinet})
	if err != nil {
		t.Fatal(err)
	}
	corpus := &logs.Corpus{
		Lines: []logs.RawLine{
			{Time: time.Unix(3600*500, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
				Text: "Kernel panic - not syncing: test"},
			{Time: time.Unix(3600*500+1, 0).UTC(), Source: "c0-0c0s0n0", Facility: "console",
				Text: "an unrecognized message"},
		},
		Events: []model.Event{{
			Time: time.Unix(3600*500, 0).UTC(), Type: model.KernelPanic,
			Source: "c0-0c0s0n0", Count: 1,
		}},
	}
	res, err := fw.ImportCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parsed != 1 || res.Unmatched != 1 {
		t.Fatalf("import stats = %+v", res)
	}
}
