package parse

import (
	"math/rand"
	"regexp"
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

// oracle is the pattern table as the regular expressions it was first
// written in, in table order: each Pattern's scanner must match exactly
// the text its expression matches, capturing the same substrings.
var oracle = []*regexp.Regexp{
	regexp.MustCompile(`^Machine Check Exception: (\S+) Bank (\d+): (0x[0-9a-f]{16})`),
	regexp.MustCompile(`^EDAC amd64 MC0: (CE|UE) ECC error at DIMM (\S+)`),
	regexp.MustCompile(`GPU has fallen off the bus \(reason (\S+)\)`),
	regexp.MustCompile(`Xid \(PCI:[^)]*\): 48, Double Bit ECC Error, (\d+) retired pages`),
	regexp.MustCompile(`^LustreError: 11-0: atlas2-(OST[0-9a-f]{4})-osc: Communicating with (\S+), operation (\S+) failed with (-?\d+)`),
	regexp.MustCompile(`^DVS: file_node_down: removing (\S+) from server list`),
	regexp.MustCompile(`^HWERR\[(\S+)\]: LCB lane\(s\) (\d+) degraded`),
	regexp.MustCompile(`^\[NID (\d+)\] Apid (\d+): initiated application termination, exit code (\d+)`),
	regexp.MustCompile(`^Kernel panic - not syncing`),
}

// checkOracle fails t unless MatchText classifies text as the first
// oracle expression that matches it, with that expression's captures.
func checkOracle(t *testing.T, text string) {
	t.Helper()
	typ, attrs, ok := MatchText(text)
	for i, re := range oracle {
		m := re.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		p := Patterns[i]
		if !ok || typ != p.Type || len(attrs) != len(p.Names) {
			t.Fatalf("%q: got %v %q %v, regexp matches %s %q", text, ok, typ, attrs, p.Type, m[1:])
		}
		for j, name := range p.Names {
			if attrs[name] != m[j+1] {
				t.Fatalf("%q: %s %s = %q, regexp captures %q", text, typ, name, attrs[name], m[j+1])
			}
		}
		return
	}
	if ok {
		t.Fatalf("%q: got %s %q, no regexp matches", text, typ, attrs)
	}
}

// generatedTexts returns the message text of an hour of generator output.
func generatedTexts() []string {
	cfg := logs.DefaultConfig()
	cfg.Nodes = topology.NodesPerCabinet
	cfg.Duration = time.Hour
	cfg.Jobs.ArrivalsPerHour = 10
	cfg.Jobs.MaxNodes = 32
	corpus := logs.Generate(cfg)
	texts := make([]string, len(corpus.Lines))
	for i, l := range corpus.Lines {
		texts[i] = l.Text
	}
	return texts
}

func TestMatchTextAgreesWithRegexps(t *testing.T) {
	if len(Patterns) != len(oracle) {
		t.Fatalf("%d patterns, %d oracle expressions", len(Patterns), len(oracle))
	}
	for i, p := range Patterns {
		if got := oracle[i].NumSubexp(); got != len(p.Names) {
			t.Fatalf("%s: %d names, oracle has %d groups", p.Type, len(p.Names), got)
		}
	}
	for _, text := range generatedTexts() {
		checkOracle(t, text)
	}
}

// BenchmarkParseLine parses an hour of generator output, line by line.
func BenchmarkParseLine(b *testing.B) {
	texts := generatedTexts()
	lines := make([]string, len(texts))
	for i, text := range texts {
		lines[i] = "2017-08-23T10:11:12Z c3-0c1s2n0 " + text
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// typeTexts returns one generator message text of every event type.
func typeTexts() []string {
	attrs := map[string]string{
		"severity": "FATAL", "bank": "4", "status": "0xb200000000070f0f",
		"kind": "UE", "dimm": "DIMM3", "reason": "bus-off", "pages": "2",
		"ost": "OST00a2", "peer": "10.36.226.77@o2ib", "op": "ost_read", "errno": "-110",
		"failed": "c3-0", "lcb": "LCB021", "lane": "2", "nid": "01234", "apid": "4567890", "exit": "137",
	}
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, len(model.EventTypes))
	for i, typ := range model.EventTypes {
		texts[i] = logs.RenderText(model.Event{Type: typ, Attrs: attrs}, rng)
	}
	return texts
}

// FuzzMatchText checks the scanners against the regexps on arbitrary text.
// Seeds: one generator line of every type, then the cases where a
// backtracking regexp and a scanner most easily part: an unanchored
// pattern behind another pattern's prefix, captures that contain the byte
// that ends them, whitespace beyond the space, non-ASCII and invalid UTF-8.
func FuzzMatchText(f *testing.F) {
	for _, text := range typeTexts() {
		f.Add(text)
	}
	for _, s := range []string{
		"Machine Check Exception: NVRM: GPU has fallen off the bus (reason x)",
		"Machine Check Exception: FATAL Bank 4: 0xb200000000070f0f Xid (PCI:0): 48, Double Bit ECC Error, 2 retired pages",
		"LustreError: 11-0: atlas2-OST0001-osc: Communicating with a, operation b failed with -5 Xid (PCI:1): 48, Double Bit ECC Error, 3 retired pages",
		"DVS: file_node_down: removing GPU has fallen off the bus (reason r) from server list",
		"Xid (PCI:a) Xid (PCI:b): 48, Double Bit ECC Error, 7 retired pages",
		"GPU has fallen off the bus (reason  GPU has fallen off the bus (reason b)",
		"GPU has fallen off the bus (reason a)b)) c)",
		"GPU has fallen off the bus (reason )",
		"LustreError: 11-0: atlas2-OST00ab-osc: Communicating with a,b,, operation c,d, failed with 7",
		"LustreError: 11-0: atlas2-OST00ab-osc: Communicating with , operation x failed with -",
		"LustreError: 11-0: atlas2-OST00AB-osc: Communicating with p, operation o failed with --1",
		"HWERR[a]:b]:]: LCB lane(s) 3 degraded",
		"HWERR[]: LCB lane(s) 3 degraded",
		"[NID 1] Apid 2] Apid 3: initiated application termination, exit code 4",
		"Machine Check Exception: A\vB Bank 1: 0x0123456789abcdef",
		"Machine Check Exception: A\tB Bank 1: 0x0123456789abcdef",
		"Machine Check Exception: A Bank 1: 0x0123456789abcdeF",
		"DVS: file_node_down: removing c0\tfrom server list",
		"DVS: file_node_down: removing c0\f from server list",
		"GPU has fallen off the bus (reason a\r)",
		"GPU has fallen off the bus (reason a\v)",
		"EDAC amd64 MC0: CE ECC error at DIMM \vD\n",
		"EDAC amd64 MC0: UE ECC error at DIMM \r",
		"DVS: file_node_down: removing c\xff\xfe from server list",
		"HWERR[é]: LCB lane(s) 1 degraded",
		"GPU has fallen off the bus (reason \xe2)",
		"Xid (PCI:\xe2\x29): 48, Double Bit ECC Error, 9 retired pages",
		"Xid (PCI:\xff\n): 48, Double Bit ECC Error, 9 retired pages",
		"[NID ٣] Apid 2: initiated application termination, exit code 4",
		"Kernel panic - not syncin",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkOracle(t, text)
	})
}
