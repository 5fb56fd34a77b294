// Lustre storm forensics — the Fig 7-bottom scenario: "tens of thousands
// Lustre error messages were generated ... a system wide event that lasted
// several minutes afflicting most of compute nodes". The paper's finding:
// a simple distributed word count over the raw messages locates the
// problem — "an object storage target is not responding".
//
// This example injects exactly that incident, detects the burst on the
// temporal map, and runs word count + TF-IDF over the raw messages in the
// burst window to surface the culprit OST id as the dominant word bubble.
package main

import (
	"fmt"
	"log"
	"regexp"
	"sort"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/core"
	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/topology"
	"hpclog/internal/viz"
)

func main() {
	log.SetFlags(0)

	fw, err := core.New(core.Options{StoreNodes: 8, RF: 2})
	if err != nil {
		log.Fatal(err)
	}

	cfg := logs.DefaultConfig()
	cfg.Nodes = 16 * topology.NodesPerCabinet
	cfg.Duration = 3 * time.Hour
	cfg.Storms = []logs.Storm{{
		Type:         model.Lustre,
		Start:        cfg.Start.Add(100 * time.Minute),
		Duration:     6 * time.Minute,
		NodeFraction: 0.8,
		EventsPerSec: 150,
		Attrs: map[string]string{
			"ost": "OST0a2f", "op": "ost_write", "errno": "-110",
			"peer": "10.36.225.14@o2ib",
		},
	}}
	corpus := logs.Generate(cfg)
	if err := fw.LoadGroundTruth(corpus); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d events from %d nodes\n\n", len(corpus.Events), cfg.Nodes)

	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)

	// Step 1: the temporal map reveals the burst.
	hist, err := fw.Histogram(model.Lustre, from, to, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Lustre errors per minute:\n%s\n", viz.Histogram(hist, 8))
	peakBin, peak := 0, 0
	for i, c := range hist {
		if c > peak {
			peak, peakBin = c, i
		}
	}
	burstFrom := from.Add(time.Duration(peakBin-3) * time.Minute)
	burstTo := from.Add(time.Duration(peakBin+4) * time.Minute)
	fmt.Printf("burst detected around %s (%d msgs/min peak)\n\n",
		from.Add(time.Duration(peakBin)*time.Minute).Format("15:04"), peak)

	// Step 2: how widespread? Count distinct afflicted sources.
	events, err := fw.Events(model.Lustre, burstFrom, burstTo)
	if err != nil {
		log.Fatal(err)
	}
	sources := map[string]bool{}
	for _, e := range events {
		sources[e.Source] = true
	}
	fmt.Printf("system-wide: %d log entries from %d distinct nodes in the burst window\n\n",
		len(events), len(sources))

	// Step 3: word count over the raw messages (Spark word count).
	counts, err := fw.WordCount(model.Lustre, burstFrom, burstTo)
	if err != nil {
		log.Fatal(err)
	}
	type wc struct {
		w string
		n int
	}
	var top []wc
	for w, n := range counts {
		top = append(top, wc{w, n})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].n != top[j].n {
			return top[i].n > top[j].n
		}
		return top[i].w < top[j].w
	})
	fmt.Println("top tokens by raw word count:")
	for i := 0; i < 8 && i < len(top); i++ {
		fmt.Printf("  %-16s %7d\n", top[i].w, top[i].n)
	}

	// Step 4: word bubbles sized by count — "a simple word counts, which
	// is rapidly executed by Spark, can locate the source of the problem".
	// The component-id tokens identify the culprit.
	ostID := regexp.MustCompile(`^ost[0-9a-f]{4}$`)
	var bubbles []analytics.TermScore
	for _, t := range top {
		bubbles = append(bubbles, analytics.TermScore{Term: t.w, Score: float64(t.n)})
	}
	fmt.Printf("\nword bubbles (counts):\n%s", viz.WordBubbles(bubbles, 10))

	var culprit string
	for _, t := range top {
		if ostID.MatchString(t.w) {
			culprit = t.w
			break
		}
	}
	if culprit != "" {
		fmt.Printf("\ndiagnosis: object storage target %s is not responding\n", culprit)
	} else {
		fmt.Println("\ndiagnosis inconclusive (no OST id among top tokens)")
	}

	// TF-IDF complements the counts: terms shared by every message score
	// near zero, so what remains are the discriminating identifiers.
	scores, err := fw.TFIDF(model.Lustre, burstFrom, burstTo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscriminating terms (TF-IDF): ")
	for _, ts := range scores[:min(5, len(scores))] {
		fmt.Printf("%s ", ts.Term)
	}
	fmt.Println()
}
