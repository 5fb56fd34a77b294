// Package parse implements the extraction step of the ETL pipeline
// (Section III-D): hand-written scanners, one per known event type, that
// turn raw console/netwatch/apsched log lines into structured model.Event
// records, plus the job-log parser producing model.AppRun records.
//
// Pattern tables are data, not code, so a new event type is added by
// registering one more Pattern — matching the paper's requirement that the
// framework accommodate new event types over time.
package parse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpclog/internal/model"
)

// maxCaps is the most attribute values any Pattern extracts.
const maxCaps = 4

// Captures holds a Pattern's attribute values, in Names order: substrings
// of the scanned text.
type Captures [maxCaps]string

// Pattern recognizes one event type in raw message text. A pattern is
// anchored by its Prefix, which the text must begin with, or, when it has
// a Find instead, matches anywhere its match can start with Find, the
// leftmost such place winning. Scan sees the text that follows the Prefix
// or the Find, reports whether it matches and returns the values of
// Names, in order. Each pattern matches exactly what the regular
// expression in its comment matches, with the same captures
// (parse_test.go holds those expressions and checks the two agree).
type Pattern struct {
	Type         model.EventType
	Prefix, Find string
	Scan         func(rest string) (Captures, bool)
	Names        []string
}

// match runs the pattern on text.
func (p *Pattern) match(text string) (Captures, bool) {
	if p.Find == "" {
		rest, ok := strings.CutPrefix(text, p.Prefix)
		if !ok {
			return Captures{}, false
		}
		return p.Scan(rest)
	}
	for {
		i := strings.Index(text, p.Find)
		if i < 0 {
			return Captures{}, false
		}
		if c, ok := p.Scan(text[i+len(p.Find):]); ok {
			return c, true
		}
		text = text[i+1:]
	}
}

// Patterns is the default pattern table, mirroring the message formats of
// Titan's Cray XK7 logs (and internal/logs' templates). The first pattern
// that matches wins, so the GPU patterns, which match anywhere, are tried
// before every pattern after them.
var Patterns = []Pattern{
	{
		// ^Machine Check Exception: (\S+) Bank (\d+): (0x[0-9a-f]{16})
		Type:   model.MCE,
		Prefix: "Machine Check Exception: ",
		Scan: func(s string) (c Captures, ok bool) {
			if c[0], s, ok = group(s, nonSpace(s), " Bank "); !ok {
				return c, false
			}
			if c[1], s, ok = group(s, digits(s), ": "); !ok || len(s) < 18 || s[:2] != "0x" || hex(s[2:18]) < 16 {
				return c, false
			}
			c[2] = s[:18]
			return c, true
		},
		Names: []string{"severity", "bank", "status"},
	},
	{
		// ^EDAC amd64 MC0: (CE|UE) ECC error at DIMM (\S+)
		Type:   model.MemECC,
		Prefix: "EDAC amd64 MC0: ",
		Scan: func(s string) (c Captures, ok bool) {
			if len(s) < 2 || s[1] != 'E' || (s[0] != 'C' && s[0] != 'U') {
				return c, false
			}
			c[0] = s[:2]
			if s, ok = strings.CutPrefix(s[2:], " ECC error at DIMM "); !ok {
				return c, false
			}
			c[1], _, ok = group(s, nonSpace(s), "")
			return c, ok
		},
		Names: []string{"kind", "dimm"},
	},
	{
		// GPU has fallen off the bus \(reason (\S+)\)
		Type: model.GPUFail,
		Find: "GPU has fallen off the bus (reason ",
		Scan: func(s string) (c Captures, ok bool) {
			c[0], _, ok = group(s, nonSpace(s), ")")
			return c, ok
		},
		Names: []string{"reason"},
	},
	{
		// Xid \(PCI:[^)]*\): 48, Double Bit ECC Error, (\d+) retired pages
		Type: model.GPUDBE,
		Find: "Xid (PCI:",
		Scan: func(s string) (c Captures, ok bool) {
			j := strings.IndexByte(s, ')')
			if j < 0 {
				return c, false
			}
			if s, ok = strings.CutPrefix(s[j:], "): 48, Double Bit ECC Error, "); !ok {
				return c, false
			}
			c[0], _, ok = group(s, digits(s), " retired pages")
			return c, ok
		},
		Names: []string{"pages"},
	},
	{
		// ^LustreError: 11-0: atlas2-(OST[0-9a-f]{4})-osc: Communicating with (\S+), operation (\S+) failed with (-?\d+)
		Type:   model.Lustre,
		Prefix: "LustreError: 11-0: atlas2-",
		Scan: func(s string) (c Captures, ok bool) {
			if len(s) < 7 || s[:3] != "OST" || hex(s[3:7]) < 4 {
				return c, false
			}
			c[0] = s[:7]
			if s, ok = strings.CutPrefix(s[7:], "-osc: Communicating with "); !ok {
				return c, false
			}
			if c[1], s, ok = group(s, nonSpace(s), ", operation "); !ok {
				return c, false
			}
			if c[2], s, ok = group(s, nonSpace(s), " failed with "); !ok {
				return c, false
			}
			sign := 0
			if strings.HasPrefix(s, "-") {
				sign = 1
			}
			n := digits(s[sign:])
			c[3] = s[:sign+n]
			return c, n > 0
		},
		Names: []string{"ost", "peer", "op", "errno"},
	},
	{
		// ^DVS: file_node_down: removing (\S+) from server list
		Type:   model.DVS,
		Prefix: "DVS: file_node_down: removing ",
		Scan: func(s string) (c Captures, ok bool) {
			c[0], _, ok = group(s, nonSpace(s), " from server list")
			return c, ok
		},
		Names: []string{"failed"},
	},
	{
		// ^HWERR\[(\S+)\]: LCB lane\(s\) (\d+) degraded
		Type:   model.Network,
		Prefix: "HWERR[",
		Scan: func(s string) (c Captures, ok bool) {
			if c[0], s, ok = group(s, nonSpace(s), "]: LCB lane(s) "); !ok {
				return c, false
			}
			c[1], _, ok = group(s, digits(s), " degraded")
			return c, ok
		},
		Names: []string{"lcb", "lane"},
	},
	{
		// ^\[NID (\d+)\] Apid (\d+): initiated application termination, exit code (\d+)
		Type:   model.AppAbort,
		Prefix: "[NID ",
		Scan: func(s string) (c Captures, ok bool) {
			if c[0], s, ok = group(s, digits(s), "] Apid "); !ok {
				return c, false
			}
			if c[1], s, ok = group(s, digits(s), ": initiated application termination, exit code "); !ok {
				return c, false
			}
			c[2], _, ok = group(s, digits(s), "")
			return c, ok
		},
		Names: []string{"nid", "apid", "exit"},
	},
	{
		// ^Kernel panic - not syncing
		Type:   model.KernelPanic,
		Prefix: "Kernel panic - not syncing",
		Scan:   func(string) (Captures, bool) { return Captures{}, true },
	},
}

// group matches the regexp fragment (X+)lit at the start of s, where s
// begins with a run of n bytes of class X: the capture is the longest
// non-empty prefix of that run which lit follows, as a greedy quantifier
// backtracks to. rest is what follows lit.
func group(s string, n int, lit string) (capture, rest string, ok bool) {
	for j := n; j > 0; j-- {
		if strings.HasPrefix(s[j:], lit) {
			return s[:j], s[j+len(lit):], true
		}
	}
	return "", "", false
}

// nonSpace returns the length of the run of \S bytes s begins with. Go's
// \s is [\t\n\f\r ] — not \v, and nothing outside ASCII — so a byte
// test agrees with the regexp's rune test on any input, invalid UTF-8
// included: a byte of a multi-byte rune, or one decoded as U+FFFD, is \S.
func nonSpace(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\f', '\r':
			return i
		}
	}
	return len(s)
}

// digits returns the length of the run of \d ([0-9]) bytes s begins with.
func digits(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return i
		}
	}
	return len(s)
}

// hex returns the length of the run of [0-9a-f] bytes s begins with.
func hex(s string) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return i
		}
	}
	return len(s)
}

// MatchText classifies raw message text against the pattern table,
// returning the event type and extracted attributes. ok is false when no
// pattern matches (the line is retained only as raw text upstream).
func MatchText(text string) (model.EventType, map[string]string, bool) {
	for i := range Patterns {
		p := &Patterns[i]
		c, ok := p.match(text)
		if !ok {
			continue
		}
		var attrs map[string]string
		if len(p.Names) > 0 {
			attrs = make(map[string]string, len(p.Names))
			for i, name := range p.Names {
				attrs[name] = c[i]
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
