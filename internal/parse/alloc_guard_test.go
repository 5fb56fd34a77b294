//go:build !race

package parse

import "testing"

// TestParseLineAllocBudget pins what parsing a line may allocate: the
// attribute map's own allocations and nothing else. The scanners capture
// substrings of the line, the timestamp parses in place, and the event is
// returned by value. Excluded under -race.
func TestParseLineAllocBudget(t *testing.T) {
	for _, text := range typeTexts() {
		typ, attrs, ok := MatchText(text)
		if !ok {
			t.Fatalf("%q matches no pattern", text)
		}
		line := "2017-08-23T10:11:12Z c3-0c1s2n0 " + text
		var sink map[string]string
		budget := testing.AllocsPerRun(100, func() {
			if len(attrs) > 0 {
				m := make(map[string]string, len(attrs))
				for k, v := range attrs {
					m[k] = v
				}
				sink = m
			}
		})
		got := testing.AllocsPerRun(100, func() {
			e, err := ParseLine(line)
			if err != nil {
				t.Fatal(err)
			}
			sink = e.Attrs
		})
		_ = sink
		t.Logf("%s: %.0f allocations (the map's own: %.0f)", typ, got, budget)
		if got > budget {
			t.Errorf("parsing a %s line allocates %.0f objects, its attribute map %.0f", typ, got, budget)
		}
	}
}
