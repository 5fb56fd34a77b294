package viz

import (
	"strings"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/model"
	"hpclog/internal/topology"
)

func sampleHeatmap() *analytics.HeatMap {
	hm := &analytics.HeatMap{
		Type: model.MCE,
		From: time.Date(2017, 8, 23, 6, 0, 0, 0, time.UTC),
		To:   time.Date(2017, 8, 23, 12, 0, 0, 0, time.UTC),
	}
	hm.Counts[12][3] = 100
	hm.Counts[0][0] = 10
	hm.Total = 110
	hm.Max = 100
	return hm
}

func TestSystemMapShading(t *testing.T) {
	out := SystemMap(sampleHeatmap())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + column header + 25 rows.
	if len(lines) != 2+topology.Rows {
		t.Fatalf("system map has %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "MCE") || !strings.Contains(lines[0], "total 110") {
		t.Fatalf("header = %q", lines[0])
	}
	// The hot cabinet renders the darkest shade.
	if !strings.Contains(lines[2+12], "@") {
		t.Fatalf("hot row lacks darkest shade: %q", lines[2+12])
	}
	// An empty row renders only spaces after its label.
	if strings.ContainsAny(strings.TrimPrefix(lines[2+24], "r24"), ".:-=+*#%@") {
		t.Fatalf("empty row has ink: %q", lines[2+24])
	}
}

func TestShadeBounds(t *testing.T) {
	if shade(0, 100) != ' ' {
		t.Error("zero count should be blank")
	}
	if shade(100, 100) != '@' {
		t.Error("max count should be darkest")
	}
	if shade(5, 0) != ' ' {
		t.Error("zero max should be blank")
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram([]int{0, 1, 5, 10, 5, 1, 0}, 5)
	if !strings.Contains(out, "peak 10 over 7 bins") {
		t.Fatalf("header missing: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+5+1 {
		t.Fatalf("%d lines", len(lines))
	}
	// The tallest bar spans all rows; count '|' per column.
	colBars := 0
	for _, l := range lines[1 : len(lines)-1] {
		if len(l) > 3 && l[3] == '|' {
			colBars++
		}
	}
	if colBars != 5 {
		t.Fatalf("peak column has %d bars, want 5", colBars)
	}
	empty := Histogram([]int{0, 0}, 4)
	if !strings.Contains(empty, "peak 0") {
		t.Fatalf("empty histogram = %q", empty)
	}
}

func TestBubbles(t *testing.T) {
	scores := []analytics.TermScore{
		{Term: "ost0012", Score: 100},
		{Term: "timeout", Score: 50},
		{Term: "read", Score: 1},
	}
	bubbles := Bubbles(scores, 10)
	if len(bubbles) != 3 {
		t.Fatalf("%d bubbles", len(bubbles))
	}
	if bubbles[0].Size != 5 {
		t.Fatalf("top term size %d, want 5", bubbles[0].Size)
	}
	if bubbles[2].Size != 1 {
		t.Fatalf("smallest term size %d, want 1", bubbles[2].Size)
	}
	out := WordBubbles(scores, 2)
	if !strings.Contains(out, "(((((ost0012)))))") {
		t.Fatalf("bubble text = %q", out)
	}
	if strings.Contains(out, "read") {
		t.Fatal("k not applied")
	}
	if got := Bubbles(nil, 5); got != nil {
		t.Fatal("nil scores should give nil bubbles")
	}
}

func TestPlacementMap(t *testing.T) {
	placement := map[string]string{}
	for _, id := range topology.CabinetAt(3, 2).Nodes() {
		placement[topology.LocationOf(id).CName()] = "LAMMPS"
	}
	placement["c0-0c0s0n0"] = "S3D"
	placement["bogus"] = "IGNORED"
	out := PlacementMap(placement)
	if !strings.Contains(out, "97 busy nodes") {
		t.Fatalf("header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "LAMMPS") || !strings.Contains(out, "96 nodes") {
		t.Fatalf("legend missing LAMMPS: %q", out)
	}
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1+3], "@") {
		t.Fatalf("full cabinet row not dark: %q", lines[1+3])
	}
}

func TestDistribution(t *testing.T) {
	buckets := []analytics.Bucket{
		{Label: "c2-0", Count: 40},
		{Label: "c1-0", Count: 20},
		{Label: "c0-0", Count: 1},
	}
	out := Distribution(buckets, 2, 20)
	if strings.Contains(out, "c0-0") {
		t.Fatal("k not applied")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if strings.Count(lines[0], "#") != 20 {
		t.Fatalf("top bar = %q", lines[0])
	}
	if strings.Count(lines[1], "#") != 10 {
		t.Fatalf("half bar = %q", lines[1])
	}
	if !strings.Contains(Distribution(nil, 5, 20), "empty") {
		t.Fatal("empty distribution not labelled")
	}
}
