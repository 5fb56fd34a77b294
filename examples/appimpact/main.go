// Application impact analysis — the Fig 7-top scenario plus the paper's
// end-user story: correlating system events with application failures.
// The generator injects a causal chain (Lustre errors → application
// aborts, 30–50 s lag); transfer entropy between the two event-type time
// series recovers the direction of information flow, and the
// per-application distribution shows who was hurt.
package main

import (
	"fmt"
	"log"
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

	// Six hours with steady background Lustre trouble that aborts jobs
	// with 30% probability — isolated cause→effect pairs all through the
	// window give the information-theoretic estimator clean statistics.
	cfg := logs.DefaultConfig()
	cfg.Nodes = 8 * topology.NodesPerCabinet
	cfg.Duration = 6 * time.Hour
	cfg.Storms = nil
	cfg.BaseRates[model.Lustre] = 0.6
	cfg.Causal = []logs.CausalRule{{
		Cause:  model.Lustre,
		Effect: model.AppAbort,
		Prob:   0.3,
		Lag:    30 * time.Second,
		Jitter: 20 * time.Second,
	}}
	corpus := logs.Generate(cfg)
	if err := fw.LoadGroundTruth(corpus); err != nil {
		log.Fatal(err)
	}

	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)

	// Transfer entropy in both directions (Fig 7-top).
	te, err := fw.TransferEntropy(model.Lustre, model.AppAbort, from, to, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TE(LUSTRE -> APP_ABORT) = %.4f bits\n", te.XToY)
	fmt.Printf("TE(APP_ABORT -> LUSTRE) = %.4f bits\n", te.YToX)
	switch te.Direction(0) {
	case "x->y":
		fmt.Println("=> Lustre trouble drives application aborts (as injected)")
	case "y->x":
		fmt.Println("=> unexpected reverse direction")
	default:
		fmt.Println("=> no directed dependence detected")
	}

	// The Fig 7-top plot: TE over sliding 30-minute sub-windows.
	points, err := analytics.TransferEntropySeries(fw.Compute, fw.DB,
		model.Lustre, model.AppAbort, from, to, 30*time.Second, 30*time.Minute, 10*time.Minute, analytics.ScanConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", viz.TEPlot(points, 8))

	// Cross-correlation locates the lag.
	sa, err := analytics.BuildSeriesScan(fw.Compute, fw.DB, model.Lustre, from, to, 30*time.Second, analytics.ScanConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sb, err := analytics.BuildSeriesScan(fw.Compute, fw.DB, model.AppAbort, from, to, 30*time.Second, analytics.ScanConfig{})
	if err != nil {
		log.Fatal(err)
	}
	cc, err := analytics.CrossCorrelation(sa.Binary(), sb.Binary(), 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncross-correlation by lag (30 s bins; positive lag = Lustre leads):")
	for lag := -6; lag <= 6; lag++ {
		bar := int(50 * cc[lag+6])
		if bar < 0 {
			bar = 0
		}
		fmt.Printf("  lag %+2d  %+.3f  %s\n", lag, cc[lag+6], stringsRepeat('#', bar))
	}

	// Who was hurt: per-application abort exposure and failed runs.
	byApp, err := fw.DistributionByApp(model.AppAbort, from, to)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naborts by application:\n%s", viz.Distribution(byApp, 6, 40))

	runs, err := fw.Runs(from, to)
	if err != nil {
		log.Fatal(err)
	}
	failed := 0
	for _, r := range runs {
		if !r.ExitOK {
			failed++
		}
	}
	fmt.Printf("\napplication runs: %d total, %d failed (%.0f%%)\n",
		len(runs), failed, 100*float64(failed)/float64(len(runs)))
}

func stringsRepeat(c byte, n int) string {
	if n <= 0 {
		return ""
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return string(b)
}
