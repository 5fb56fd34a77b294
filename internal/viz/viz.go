// Package viz renders the frontend's visualization components (Section
// III-B) as text and SVG: the physical system map with heat-map shading
// (Fig 5/6), temporal histograms for the temporal map, application
// placement maps, and the word-bubble view of text-analytics results (Fig
// 7-bottom). The browser/D3 frontend is out of scope for a reproduction;
// these renderers compute the same visual encodings (spatial binning,
// density shading, bubble sizing) deterministically so tests can assert
// on them. logctl is the only program that renders with them.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"hpclog/internal/analytics"
	"hpclog/internal/topology"
)

// shades maps density [0,1] to ASCII ink, light to dark.
var shades = []byte(" .:-=+*#%@")

func shade(v, max int) byte {
	if max <= 0 || v <= 0 {
		return shades[0]
	}
	idx := 1 + (len(shades)-2)*v/max
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// SystemMap renders the cabinet-level heat map onto the 25×8 machine-room
// floor grid. Each cell is one cabinet; darker means more occurrences.
func SystemMap(hm *analytics.HeatMap) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s events %s – %s (total %d, max/cabinet %d)\n",
		hm.Type, hm.From.Format("2006-01-02 15:04"), hm.To.Format("15:04"), hm.Total, hm.Max)
	b.WriteString("    ")
	for c := 0; c < topology.Cols; c++ {
		fmt.Fprintf(&b, " c%d", c)
	}
	b.WriteByte('\n')
	for r := 0; r < topology.Rows; r++ {
		fmt.Fprintf(&b, "r%02d ", r)
		for c := 0; c < topology.Cols; c++ {
			fmt.Fprintf(&b, "  %c", shade(hm.Counts[r][c], hm.Max))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HeatmapSVG renders the heat map as a standalone SVG document, the
// export format a web frontend would embed.
func HeatmapSVG(hm *analytics.HeatMap) string {
	const cell = 20
	var b strings.Builder
	w := topology.Cols * cell
	h := topology.Rows * cell
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, w, h)
	b.WriteByte('\n')
	for r := 0; r < topology.Rows; r++ {
		for c := 0; c < topology.Cols; c++ {
			intensity := 0.0
			if hm.Max > 0 {
				intensity = float64(hm.Counts[r][c]) / float64(hm.Max)
			}
			red := int(255 * intensity)
			fmt.Fprintf(&b,
				`<rect x="%d" y="%d" width="%d" height="%d" fill="rgb(%d,%d,64)"><title>c%d-%d: %d</title></rect>`,
				c*cell, r*cell, cell, cell, red, 64+int(128*(1-intensity)), c, r, hm.Counts[r][c])
			b.WriteByte('\n')
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// Histogram renders a vertical-bar chart of bin counts, height rows tall —
// the temporal map strip.
func Histogram(counts []int, height int) string {
	if height < 1 {
		height = 8
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "peak %d over %d bins\n", max, len(counts))
	if max == 0 {
		return b.String()
	}
	for row := height; row >= 1; row-- {
		threshold := max * row / height
		for _, c := range counts {
			if c >= threshold && c > 0 {
				b.WriteByte('|')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", len(counts)))
	b.WriteByte('\n')
	return b.String()
}

// Bubble is one sized term of the word-bubble view.
type Bubble struct {
	Term string
	Size int // 1 (smallest) .. 5 (largest)
}

// Bubbles scales TF-IDF (or count) scores into 5 bubble sizes, largest
// first.
func Bubbles(scores []analytics.TermScore, k int) []Bubble {
	if k > len(scores) {
		k = len(scores)
	}
	scores = scores[:k]
	if len(scores) == 0 {
		return nil
	}
	maxScore := scores[0].Score
	out := make([]Bubble, len(scores))
	for i, s := range scores {
		size := 1
		if maxScore > 0 {
			size = 1 + int(4*s.Score/maxScore)
			if size > 5 {
				size = 5
			}
		}
		out[i] = Bubble{Term: s.Term, Size: size}
	}
	return out
}

// WordBubbles renders the bubble view as text, sizing terms by repetition:
// a size-4 bubble prints as "((((term))))".
func WordBubbles(scores []analytics.TermScore, k int) string {
	var b strings.Builder
	for _, bub := range Bubbles(scores, k) {
		open := strings.Repeat("(", bub.Size)
		close := strings.Repeat(")", bub.Size)
		fmt.Fprintf(&b, "%s%s%s ", open, bub.Term, close)
	}
	b.WriteByte('\n')
	return b.String()
}

// PlacementMap renders application placement at an instant (Fig 6-bottom):
// per cabinet, the number of busy nodes shaded on the floor grid, plus a
// legend of the largest applications.
func PlacementMap(placement map[string]string) string {
	var busy [topology.Rows][topology.Cols]int
	appNodes := map[string]int{}
	busyNodes := 0
	for cname, app := range placement {
		loc, err := topology.ParseCName(cname)
		if err != nil {
			continue
		}
		busy[loc.Row][loc.Col]++
		appNodes[app]++
		busyNodes++
	}
	max := 0
	for r := range busy {
		for c := range busy[r] {
			if busy[r][c] > max {
				max = busy[r][c]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "application placement: %d busy nodes, %d applications\n", busyNodes, len(appNodes))
	for r := 0; r < topology.Rows; r++ {
		fmt.Fprintf(&b, "r%02d ", r)
		for c := 0; c < topology.Cols; c++ {
			fmt.Fprintf(&b, "  %c", shade(busy[r][c], max))
		}
		b.WriteByte('\n')
	}
	type appCount struct {
		app string
		n   int
	}
	tops := make([]appCount, 0, len(appNodes))
	for a, n := range appNodes {
		tops = append(tops, appCount{a, n})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].n != tops[j].n {
			return tops[i].n > tops[j].n
		}
		return tops[i].app < tops[j].app
	})
	if len(tops) > 8 {
		tops = tops[:8]
	}
	for _, t := range tops {
		fmt.Fprintf(&b, "  %-12s %5d nodes\n", t.app, t.n)
	}
	return b.String()
}

// TEPlot renders a sliding-window transfer entropy series as a two-track
// ASCII line chart (Fig 7-top): '>' marks the forward direction, '<' the
// reverse, '#' where both coincide.
func TEPlot(points []analytics.TEPoint, height int) string {
	if height < 2 {
		height = 8
	}
	var b strings.Builder
	if len(points) == 0 {
		b.WriteString("(no transfer entropy points)\n")
		return b.String()
	}
	maxTE := 0.0
	for _, p := range points {
		if p.XToY > maxTE {
			maxTE = p.XToY
		}
		if p.YToX > maxTE {
			maxTE = p.YToX
		}
	}
	fmt.Fprintf(&b, "transfer entropy, %d windows, max %.4f bits ('>' forward, '<' reverse)\n",
		len(points), maxTE)
	if maxTE == 0 {
		return b.String()
	}
	level := func(v float64) int { return int(v / maxTE * float64(height-1)) }
	for row := height - 1; row >= 0; row-- {
		for _, p := range points {
			f, r := level(p.XToY), level(p.YToX)
			switch {
			case f == row && r == row:
				b.WriteByte('#')
			case f == row:
				b.WriteByte('>')
			case r == row:
				b.WriteByte('<')
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", len(points)))
	b.WriteByte('\n')
	return b.String()
}

// Distribution renders occurrence buckets as a horizontal bar chart.
func Distribution(buckets []analytics.Bucket, k, width int) string {
	if k > len(buckets) {
		k = len(buckets)
	}
	if width < 10 {
		width = 40
	}
	var b strings.Builder
	if k == 0 {
		b.WriteString("(empty distribution)\n")
		return b.String()
	}
	max := buckets[0].Count
	for _, bk := range buckets[:k] {
		bar := 0
		if max > 0 {
			bar = width * bk.Count / max
		}
		fmt.Fprintf(&b, "%-14s %6d %s\n", bk.Label, bk.Count, strings.Repeat("#", bar))
	}
	return b.String()
}
