// Package parse implements the extraction step of the ETL pipeline
// (Section III-D): regex parsers, one per known event type, that turn raw
// console/netwatch/apsched log lines into structured model.Event records,
// plus the job-log parser producing model.AppRun records.
//
// Pattern tables are data, not code, so a new event type is added by
// registering one more Pattern — matching the paper's requirement that the
// framework accommodate new event types over time.
package parse

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"hpclog/internal/model"
)

// Pattern recognizes one event type in raw message text. Names lists the
// attribute keys assigned from the regexp's capture groups, in order.
type Pattern struct {
	Type  model.EventType
	Re    *regexp.Regexp
	Names []string
}

// Patterns is the default pattern table, mirroring the message formats of
// Titan's Cray XK7 logs (and internal/logs' templates).
var Patterns = []Pattern{
	{
		Type:  model.MCE,
		Re:    regexp.MustCompile(`^Machine Check Exception: (\S+) Bank (\d+): (0x[0-9a-f]{16})`),
		Names: []string{"severity", "bank", "status"},
	},
	{
		Type:  model.MemECC,
		Re:    regexp.MustCompile(`^EDAC amd64 MC0: (CE|UE) ECC error at DIMM (\S+)`),
		Names: []string{"kind", "dimm"},
	},
	{
		Type:  model.GPUFail,
		Re:    regexp.MustCompile(`GPU has fallen off the bus \(reason (\S+)\)`),
		Names: []string{"reason"},
	},
	{
		Type:  model.GPUDBE,
		Re:    regexp.MustCompile(`Xid \(PCI:[^)]*\): 48, Double Bit ECC Error, (\d+) retired pages`),
		Names: []string{"pages"},
	},
	{
		Type:  model.Lustre,
		Re:    regexp.MustCompile(`^LustreError: 11-0: atlas2-(OST[0-9a-f]{4})-osc: Communicating with (\S+), operation (\S+) failed with (-?\d+)`),
		Names: []string{"ost", "peer", "op", "errno"},
	},
	{
		Type:  model.DVS,
		Re:    regexp.MustCompile(`^DVS: file_node_down: removing (\S+) from server list`),
		Names: []string{"failed"},
	},
	{
		Type:  model.Network,
		Re:    regexp.MustCompile(`^HWERR\[(\S+)\]: LCB lane\(s\) (\d+) degraded`),
		Names: []string{"lcb", "lane"},
	},
	{
		Type:  model.AppAbort,
		Re:    regexp.MustCompile(`^\[NID (\d+)\] Apid (\d+): initiated application termination, exit code (\d+)`),
		Names: []string{"nid", "apid", "exit"},
	},
	{
		Type:  model.KernelPanic,
		Re:    regexp.MustCompile(`^Kernel panic - not syncing`),
		Names: nil,
	},
}

// MatchText classifies raw message text against the pattern table,
// returning the event type and extracted attributes. ok is false when no
// pattern matches (the line is retained only as raw text upstream).
func MatchText(text string) (model.EventType, map[string]string, bool) {
	for _, p := range Patterns {
		m := p.Re.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		var attrs map[string]string
		if len(p.Names) > 0 {
			attrs = make(map[string]string, len(p.Names))
			for i, name := range p.Names {
				attrs[name] = m[i+1]
			}
		}
		return p.Type, attrs, true
	}
	return "", nil, false
}

// ErrNoMatch reports a line that parsed structurally but matched no known
// event pattern.
var ErrNoMatch = fmt.Errorf("parse: no event pattern matched")

// ParseLine parses one console-format log line ("RFC3339 source text...")
// into an event. Lines matching no pattern return ErrNoMatch with the
// structural fields still filled in (callers may keep them as raw events).
func ParseLine(line string) (model.Event, error) {
	ts, rest, ok := strings.Cut(line, " ")
	if !ok {
		return model.Event{}, fmt.Errorf("parse: malformed line %q", truncate(line))
	}
	at, err := time.Parse(time.RFC3339, ts)
	if err != nil {
		return model.Event{}, fmt.Errorf("parse: bad timestamp in %q: %v", truncate(line), err)
	}
	source, text, ok := strings.Cut(rest, " ")
	if !ok || source == "" {
		return model.Event{}, fmt.Errorf("parse: missing source in %q", truncate(line))
	}
	e := model.Event{Time: at.UTC(), Source: source, Count: 1, Raw: text}
	typ, attrs, matched := MatchText(text)
	if !matched {
		return e, ErrNoMatch
	}
	e.Type = typ
	e.Attrs = attrs
	return e, nil
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// ParseJobLine parses one job-log completion record of the form
// "jobid=... user=... app=... start=UNIX end=UNIX nodes=a,b,... exit=N".
func ParseJobLine(line string) (model.AppRun, error) {
	fields := strings.Fields(line)
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return model.AppRun{}, fmt.Errorf("parse: bad job field %q in %q", f, truncate(line))
		}
		kv[k] = v
	}
	for _, req := range []string{"jobid", "user", "app", "start", "end", "nodes", "exit"} {
		if kv[req] == "" {
			return model.AppRun{}, fmt.Errorf("parse: job record missing %s: %q", req, truncate(line))
		}
	}
	start, err := strconv.ParseInt(kv["start"], 10, 64)
	if err != nil {
		return model.AppRun{}, fmt.Errorf("parse: bad start %q", kv["start"])
	}
	end, err := strconv.ParseInt(kv["end"], 10, 64)
	if err != nil {
		return model.AppRun{}, fmt.Errorf("parse: bad end %q", kv["end"])
	}
	run := model.AppRun{
		JobID:  kv["jobid"],
		User:   kv["user"],
		App:    kv["app"],
		Start:  time.Unix(start, 0).UTC(),
		End:    time.Unix(end, 0).UTC(),
		Nodes:  strings.Split(kv["nodes"], ","),
		ExitOK: kv["exit"] == "0",
	}
	return run, nil
}

// Result counts the lines of one bulk parse by outcome.
type Result struct {
	Parsed    int
	Unmatched int
	Malformed int
}
