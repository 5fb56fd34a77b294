//go:build !race

package topology

import "testing"

// TestParseComponentAllocBudget: parsing a valid cname, which the count
// folds do once per distinct source of every block, allocates nothing.
func TestParseComponentAllocBudget(t *testing.T) {
	for _, s := range []string{"c3-10", "c3-10c1s5", "c7-24c2s7n3"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseComponent(s); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ParseComponent(%q) allocates %.0f objects", s, n)
		}
	}
}
