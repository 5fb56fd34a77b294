// Package logs synthesizes a realistic Titan log corpus. The paper works
// on production console, application, and network logs of the Titan
// supercomputer, which are not publicly available; this package is the
// substitution (see DESIGN.md): a generator that reproduces the
// statistical structure the analytics depend on — per-type background
// rates, spatial hotspots, system-wide storms (e.g. an unresponsive Lustre
// OST flooding every client), causal event chains, and a job scheduler
// whose applications are struck by node failures.
//
// The generator emits both raw log lines (to exercise the ETL parsers)
// and ground-truth events/runs (to validate the pipeline).
package logs

import (
	"fmt"
	"math/rand"
	"time"

	"hpclog/internal/model"
)

// RawLine is one unparsed log line as collected from a log source.
type RawLine struct {
	Time     time.Time
	Source   string // reporting component (cname) or service host
	Facility string // console, netwatch, or apsched
	Text     string
}

// Format renders the line in the syslog-like console format the parsers
// consume: RFC3339 timestamp, source, free text.
func (l RawLine) Format() string {
	return fmt.Sprintf("%s %s %s", l.Time.UTC().Format(time.RFC3339), l.Source, l.Text)
}

// RenderText produces the raw message text for an event, using templates
// modeled on real Cray XK7 log messages.
func RenderText(e model.Event, rng *rand.Rand) string {
	switch e.Type {
	case model.MCE:
		return fmt.Sprintf("Machine Check Exception: %s Bank %s: %s",
			e.Attrs["severity"], e.Attrs["bank"], e.Attrs["status"])
	case model.MemECC:
		return fmt.Sprintf("EDAC amd64 MC0: %s ECC error at DIMM %s (node memory controller)",
			e.Attrs["kind"], e.Attrs["dimm"])
	case model.GPUFail:
		return fmt.Sprintf("NVRM: GPU at PCI:0000:02:00: GPU has fallen off the bus (reason %s)",
			e.Attrs["reason"])
	case model.GPUDBE:
		return fmt.Sprintf("NVRM: Xid (PCI:0000:02:00): 48, Double Bit ECC Error, %s retired pages",
			e.Attrs["pages"])
	case model.Lustre:
		return fmt.Sprintf("LustreError: 11-0: atlas2-%s-osc: Communicating with %s, operation %s failed with %s",
			e.Attrs["ost"], e.Attrs["peer"], e.Attrs["op"], e.Attrs["errno"])
	case model.DVS:
		return fmt.Sprintf("DVS: file_node_down: removing %s from server list", e.Attrs["failed"])
	case model.Network:
		return fmt.Sprintf("HWERR[%s]: LCB lane(s) %s degraded, channel failover initiated",
			e.Attrs["lcb"], e.Attrs["lane"])
	case model.AppAbort:
		return fmt.Sprintf("[NID %s] Apid %s: initiated application termination, exit code %s",
			e.Attrs["nid"], e.Attrs["apid"], e.Attrs["exit"])
	case model.KernelPanic:
		return "Kernel panic - not syncing: Fatal exception in interrupt"
	default:
		return fmt.Sprintf("%s event", e.Type)
	}
}

// facilityOf maps event types to the log facility that reports them.
func facilityOf(t model.EventType) string {
	switch t {
	case model.Network:
		return "netwatch"
	case model.AppAbort:
		return "apsched"
	default:
		return "console"
	}
}

// fillAttrs populates type-specific attributes with plausible values.
func fillAttrs(e *model.Event, rng *rand.Rand) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]string, 4)
	}
	set := func(k, v string) {
		if _, ok := e.Attrs[k]; !ok {
			e.Attrs[k] = v
		}
	}
	switch e.Type {
	case model.MCE:
		set("severity", pick(rng, "CORRECTED", "FATAL", "UNCORRECTED"))
		set("bank", fmt.Sprint(rng.Intn(6)))
		set("status", fmt.Sprintf("0x%016x", rng.Uint64()|0x8000000000000000))
	case model.MemECC:
		set("kind", pick(rng, "CE", "CE", "CE", "UE"))
		set("dimm", fmt.Sprintf("DIMM%d", rng.Intn(8)))
	case model.GPUFail:
		set("reason", pick(rng, "bus-off", "power", "thermal"))
	case model.GPUDBE:
		set("pages", fmt.Sprint(1+rng.Intn(4)))
	case model.Lustre:
		set("ost", fmt.Sprintf("OST%04x", rng.Intn(1008)))
		set("peer", fmt.Sprintf("10.36.%d.%d@o2ib", rng.Intn(256), rng.Intn(256)))
		set("op", pick(rng, "ost_read", "ost_write", "ost_connect", "ldlm_enqueue"))
		set("errno", pick(rng, "-110", "-107", "-5", "-30"))
	case model.DVS:
		set("failed", fmt.Sprintf("c%d-%d", rng.Intn(8), rng.Intn(25)))
	case model.Network:
		set("lcb", fmt.Sprintf("LCB%02d%d", rng.Intn(48), rng.Intn(8)))
		set("lane", fmt.Sprint(rng.Intn(3)))
	case model.AppAbort:
		set("nid", fmt.Sprintf("%05d", rng.Intn(19200)))
		set("apid", fmt.Sprint(1000000+rng.Intn(9000000)))
		set("exit", pick(rng, "137", "139", "1", "134"))
	}
}

func pick(rng *rand.Rand, options ...string) string {
	return options[rng.Intn(len(options))]
}
