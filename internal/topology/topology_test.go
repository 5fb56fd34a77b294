package topology

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDimensions(t *testing.T) {
	if Cabinets != 200 {
		t.Fatalf("Cabinets = %d, want 200", Cabinets)
	}
	if NodesPerCabinet != 96 {
		t.Fatalf("NodesPerCabinet = %d, want 96", NodesPerCabinet)
	}
	if TotalNodes != 19200 {
		t.Fatalf("TotalNodes = %d, want 19200", TotalNodes)
	}
}

func TestLocationRoundTrip(t *testing.T) {
	for id := 0; id < TotalNodes; id++ {
		l := LocationOf(NodeID(id))
		if !l.Valid() {
			t.Fatalf("LocationOf(%d) = %+v invalid", id, l)
		}
		if got := l.ID(); got != NodeID(id) {
			t.Fatalf("round trip %d -> %+v -> %d", id, l, got)
		}
	}
}

func TestCNameRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		id := NodeID(int(raw) % TotalNodes)
		l := LocationOf(id)
		parsed, err := ParseCName(l.CName())
		return err == nil && parsed == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseCNameExamples(t *testing.T) {
	cases := []struct {
		in   string
		want Location
	}{
		{"c0-0c0s0n0", Location{}},
		{"c3-0c2s7n1", Location{Row: 0, Col: 3, Cage: 2, Slot: 7, Node: 1}},
		{"c7-24c2s7n3", Location{Row: 24, Col: 7, Cage: 2, Slot: 7, Node: 3}},
		{"c12-3c1s4n2", Location{Row: 3, Col: 12, Cage: 1, Slot: 4, Node: 2}},
	}
	for _, c := range cases {
		got, err := ParseCName(c.in)
		if c.in == "c12-3c1s4n2" {
			// Column 12 exceeds Titan's 8 columns; the paper's prose
			// example is schematic. It must be rejected as out of bounds.
			if err == nil {
				t.Fatalf("ParseCName(%q) accepted out-of-bounds column", c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseCName(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseCName(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseCNameErrors(t *testing.T) {
	bad := []string{
		"", "c", "x0-0c0s0n0", "c-0c0s0n0", "c0-c0s0n0", "c0-0c0s0n",
		"c0-0c0s0n0x", "c8-0c0s0n0", "c0-25c0s0n0", "c0-0c3s0n0",
		"c0-0c0s8n0", "c0-0c0s0n4",
	}
	for _, s := range bad {
		if _, err := ParseCName(s); err == nil {
			t.Errorf("ParseCName(%q) succeeded, want error", s)
		}
	}
}

func TestParseComponentLevels(t *testing.T) {
	cases := []struct {
		in    string
		level Level
		nodes int
	}{
		{"c3-10", LevelCabinet, 96},
		{"c3-10c1", LevelCage, 32},
		{"c3-10c1s5", LevelBlade, 4},
		{"c3-10c1s5n2", LevelNode, 1},
	}
	for _, c := range cases {
		comp, err := ParseComponent(c.in)
		if err != nil {
			t.Fatalf("ParseComponent(%q): %v", c.in, err)
		}
		if comp.Level != c.level {
			t.Fatalf("ParseComponent(%q).Level = %v, want %v", c.in, comp.Level, c.level)
		}
		if got := len(comp.Nodes()); got != c.nodes {
			t.Fatalf("ParseComponent(%q).Nodes() = %d nodes, want %d", c.in, got, c.nodes)
		}
		if comp.String() != c.in {
			t.Fatalf("Component.String() = %q, want %q", comp.String(), c.in)
		}
		for _, id := range comp.Nodes() {
			if !comp.Contains(LocationOf(id)) {
				t.Fatalf("%q does not contain its own node %d", c.in, id)
			}
		}
	}
}

func TestComponentContainsProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		la := LocationOf(NodeID(int(a) % TotalNodes))
		lb := LocationOf(NodeID(int(b) % TotalNodes))
		cab := Component{Level: LevelCabinet, Loc: Location{Row: la.Row, Col: la.Col}}
		want := la.Row == lb.Row && la.Col == lb.Col
		return cab.Contains(lb) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeminiPairs(t *testing.T) {
	for id := 0; id < TotalNodes; id++ {
		info := Info(NodeID(id))
		pair := Info(info.PairNode)
		if pair.Gemini != info.Gemini {
			t.Fatalf("node %d pair %d: gemini %d != %d", id, info.PairNode, pair.Gemini, info.Gemini)
		}
		if pair.PairNode != info.ID {
			t.Fatalf("pairing not symmetric at node %d", id)
		}
		if info.Loc.Blade() != pair.Loc.Blade() {
			t.Fatalf("pair of node %d on different blade", id)
		}
	}
}

func TestAllNodes(t *testing.T) {
	seen := make(map[string]bool, TotalNodes)
	for i := 0; i < TotalNodes; i++ {
		info := Info(NodeID(i))
		if info.ID != NodeID(i) {
			t.Fatalf("infos[%d].ID = %d", i, info.ID)
		}
		if seen[info.CName] {
			t.Fatalf("duplicate cname %s", info.CName)
		}
		seen[info.CName] = true
		if info.Spec != TitanNodeSpec {
			t.Fatalf("infos[%d] wrong hardware spec", i)
		}
	}
}

func TestCabinetAt(t *testing.T) {
	c := CabinetAt(24, 7)
	if c.String() != "c7-24" {
		t.Fatalf("CabinetAt(24,7) = %s", c)
	}
	if got := len(c.Nodes()); got != NodesPerCabinet {
		t.Fatalf("cabinet has %d nodes", got)
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelCabinet: "cabinet", LevelCage: "cage", LevelBlade: "blade", LevelNode: "node",
	} {
		if lv.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lv), lv.String(), want)
		}
	}
	if Level(99).String() != "Level(99)" {
		t.Errorf("unknown level formatting wrong")
	}
}

// parseComponentRef is ParseComponent as it was written first, with
// strconv.Atoi and a closure per level: the reference the allocation-free
// parser must agree with.
func parseComponentRef(s string) (Component, error) {
	orig := s
	fail := func() (Component, error) {
		return Component{}, fmt.Errorf("topology: invalid cname %q", orig)
	}
	if len(s) < 2 || s[0] != 'c' {
		return fail()
	}
	s = s[1:]
	dash := strings.IndexByte(s, '-')
	if dash <= 0 {
		return fail()
	}
	col, err := strconv.Atoi(s[:dash])
	if err != nil {
		return fail()
	}
	s = s[dash+1:]
	// Row runs until the next letter or end of string.
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 {
		return fail()
	}
	row, err := strconv.Atoi(s[:i])
	if err != nil {
		return fail()
	}
	s = s[i:]
	c := Component{Level: LevelCabinet, Loc: Location{Row: row, Col: col}}

	next := func(prefix byte) (int, bool, error) {
		if len(s) == 0 {
			return 0, false, nil
		}
		if s[0] != prefix {
			return 0, false, fmt.Errorf("bad prefix")
		}
		s = s[1:]
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == 0 {
			return 0, false, fmt.Errorf("missing digits")
		}
		v, err := strconv.Atoi(s[:j])
		s = s[j:]
		return v, true, err
	}

	if v, ok, err := next('c'); err != nil {
		return fail()
	} else if ok {
		c.Level, c.Loc.Cage = LevelCage, v
	} else {
		return finishComponentRef(c, s, orig)
	}
	if v, ok, err := next('s'); err != nil {
		return fail()
	} else if ok {
		c.Level, c.Loc.Slot = LevelBlade, v
	} else {
		return finishComponentRef(c, s, orig)
	}
	if v, ok, err := next('n'); err != nil {
		return fail()
	} else if ok {
		c.Level, c.Loc.Node = LevelNode, v
	}
	return finishComponentRef(c, s, orig)
}

func finishComponentRef(c Component, rest, orig string) (Component, error) {
	if rest != "" {
		return Component{}, fmt.Errorf("topology: invalid cname %q: trailing %q", orig, rest)
	}
	if !c.Loc.Valid() {
		return Component{}, fmt.Errorf("topology: cname %q out of Titan bounds", orig)
	}
	return c, nil
}

// FuzzParseComponentMatchesReference: on any string ParseComponent accepts
// what the reference accepts, with the same component, and fails with the
// same error text.
func FuzzParseComponentMatchesReference(f *testing.F) {
	for _, s := range []string{
		"", "c", "c0", "c-", "c0-", "c-0", "c+3-0c0s0n0", "c+-3-0", "c++3-0", "c03-007c01s7n03",
		"c3-10", "c3-10c1", "c3-10c1s5", "c3-10c1s5n2", "c7-24c2s7n3", "c8-0", "c0-25c0s0n0",
		"c0-0c0s0n0x", "c0-0c0s0n", "c0-0c0x", "c0-0s0", "c0-0c0s0n0n0", "c0 -0", "c٣-0",
		"c9223372036854775807-0", "c9223372036854775808-0", "c0-9223372036854775807c0",
		"c0-0c99999999999999999999", "c00000000000000000000000003-0c0", "x0-0c0s0n0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseComponent(s)
		want, wantErr := parseComponentRef(s)
		if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseComponent(%q) = %+v, %v; reference %+v, %v", s, got, err, want, wantErr)
		}
	})
}
