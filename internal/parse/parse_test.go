package parse

import (
	"testing"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

func TestParseLineExamples(t *testing.T) {
	cases := []struct {
		line string
		typ  model.EventType
		attr map[string]string
	}{
		{
			"2017-08-23T10:11:12Z c3-0c1s2n0 Machine Check Exception: FATAL Bank 4: 0xb200000000070f0f",
			model.MCE,
			map[string]string{"severity": "FATAL", "bank": "4", "status": "0xb200000000070f0f"},
		},
		{
			"2017-08-23T10:11:12Z c0-0c0s0n1 EDAC amd64 MC0: CE ECC error at DIMM DIMM3 (node memory controller)",
			model.MemECC,
			map[string]string{"kind": "CE", "dimm": "DIMM3"},
		},
		{
			"2017-08-23T10:11:12Z c0-0c0s0n1 NVRM: GPU at PCI:0000:02:00: GPU has fallen off the bus (reason bus-off)",
			model.GPUFail,
			map[string]string{"reason": "bus-off"},
		},
		{
			"2017-08-23T10:11:12Z c0-0c0s0n1 NVRM: Xid (PCI:0000:02:00): 48, Double Bit ECC Error, 2 retired pages",
			model.GPUDBE,
			map[string]string{"pages": "2"},
		},
		{
			"2017-08-23T10:11:12Z c5-3c2s7n3 LustreError: 11-0: atlas2-OST0012-osc: Communicating with 10.36.226.77@o2ib, operation ost_read failed with -110",
			model.Lustre,
			map[string]string{"ost": "OST0012", "peer": "10.36.226.77@o2ib", "op": "ost_read", "errno": "-110"},
		},
		{
			"2017-08-23T10:11:12Z c1-0c0s0n0 DVS: file_node_down: removing c3-0 from server list",
			model.DVS,
			map[string]string{"failed": "c3-0"},
		},
		{
			"2017-08-23T10:11:12Z c1-0c0s0n0 HWERR[LCB021]: LCB lane(s) 2 degraded, channel failover initiated",
			model.Network,
			map[string]string{"lcb": "LCB021", "lane": "2"},
		},
		{
			"2017-08-23T10:11:12Z c1-0c0s0n0 [NID 01234] Apid 4567890: initiated application termination, exit code 137",
			model.AppAbort,
			map[string]string{"nid": "01234", "apid": "4567890", "exit": "137"},
		},
		{
			"2017-08-23T10:11:12Z c1-0c0s0n0 Kernel panic - not syncing: Fatal exception in interrupt",
			model.KernelPanic,
			nil,
		},
	}
	for _, c := range cases {
		e, err := ParseLine(c.line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", c.line, err)
		}
		if e.Type != c.typ {
			t.Fatalf("line parsed as %s, want %s", e.Type, c.typ)
		}
		if e.Source == "" || e.Time.IsZero() {
			t.Fatalf("structural fields missing: %+v", e)
		}
		want := time.Date(2017, 8, 23, 10, 11, 12, 0, time.UTC)
		if !e.Time.Equal(want) {
			t.Fatalf("time = %v, want %v", e.Time, want)
		}
		for k, v := range c.attr {
			if e.Attrs[k] != v {
				t.Fatalf("%s: attr %s = %q, want %q", c.typ, k, e.Attrs[k], v)
			}
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	if _, err := ParseLine("nospace"); err == nil {
		t.Error("one-token line accepted")
	}
	if _, err := ParseLine("notatime c0-0c0s0n0 text"); err == nil {
		t.Error("bad timestamp accepted")
	}
	if _, err := ParseLine("2017-08-23T10:11:12Z onlysource"); err == nil {
		t.Error("missing text accepted")
	}
	e, err := ParseLine("2017-08-23T10:11:12Z c0-0c0s0n0 some unrecognized gibberish")
	if err != ErrNoMatch {
		t.Errorf("unmatched line: err = %v, want ErrNoMatch", err)
	}
	if e.Source != "c0-0c0s0n0" || e.Raw == "" {
		t.Errorf("unmatched line lost structural fields: %+v", e)
	}
}

func TestRoundTripThroughGenerator(t *testing.T) {
	// Every line the generator emits must be recognized by exactly the
	// type that produced it — the ETL contract.
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	cfg.Jobs.ArrivalsPerHour = 10
	cfg.Jobs.MaxNodes = 32
	corpus := logs.Generate(cfg)

	var parsed []model.Event
	for i, l := range corpus.Lines {
		e, err := ParseLine(l.Format())
		if err != nil {
			t.Fatalf("generator line %d not parsed: %v", i, err)
		}
		parsed = append(parsed, e)
	}
	if len(parsed) != len(corpus.Events) {
		t.Fatalf("parsed %d events, ground truth %d", len(parsed), len(corpus.Events))
	}
	for i, e := range parsed {
		want := corpus.Events[i]
		if e.Type != want.Type || e.Source != want.Source || !e.Time.Equal(want.Time) {
			t.Fatalf("event %d mismatch: parsed %v/%s/%s, want %v/%s/%s",
				i, e.Time, e.Type, e.Source, want.Time, want.Type, want.Source)
		}
	}
}

func TestParseJobLine(t *testing.T) {
	line := "jobid=1000001 user=user007 app=S3D start=1503468000 end=1503471600 nodes=c0-0c0s0n0,c0-0c0s0n1 exit=0"
	run, err := ParseJobLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if run.JobID != "1000001" || run.User != "user007" || run.App != "S3D" {
		t.Fatalf("run = %+v", run)
	}
	if !run.ExitOK || len(run.Nodes) != 2 {
		t.Fatalf("run = %+v", run)
	}
	if run.End.Sub(run.Start) != time.Hour {
		t.Fatalf("duration = %v", run.End.Sub(run.Start))
	}

	if _, err := ParseJobLine("jobid=1 user=u"); err == nil {
		t.Error("incomplete job line accepted")
	}
	if _, err := ParseJobLine("jobid=1 user=u app=a start=x end=2 nodes=n exit=0"); err == nil {
		t.Error("bad start accepted")
	}
	if _, err := ParseJobLine("not a key value line"); err == nil {
		t.Error("non-kv line accepted")
	}
}

func TestJobRoundTrip(t *testing.T) {
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	cfg.Jobs.MaxNodes = 16
	corpus := logs.Generate(cfg)
	var runs []model.AppRun
	for i, line := range corpus.JobLines {
		r, err := ParseJobLine(line)
		if err != nil {
			t.Fatalf("job line %d not parsed: %v", i, err)
		}
		runs = append(runs, r)
	}
	if len(runs) != len(corpus.Runs) {
		t.Fatalf("job parse: %d runs of %d", len(runs), len(corpus.Runs))
	}
	for i, r := range runs {
		want := corpus.Runs[i]
		if r.JobID != want.JobID || r.User != want.User || r.App != want.App ||
			!r.Start.Equal(want.Start) || !r.End.Equal(want.End) ||
			r.ExitOK != want.ExitOK || len(r.Nodes) != len(want.Nodes) {
			t.Fatalf("run %d mismatch:\n got %+v\nwant %+v", i, r, want)
		}
	}
}
