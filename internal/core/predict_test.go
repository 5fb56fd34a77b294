package core

import (
	"testing"
	"time"

	"hpclog/internal/logs"
	"hpclog/internal/model"
	"hpclog/internal/predict"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func TestTrainPredictorThroughFramework(t *testing.T) {
	fw, err := New(Options{Store: store.Config{Nodes: 4, RF: 2}, MachineNodes: 2 * topology.NodesPerCabinet})
	if err != nil {
		t.Fatal(err)
	}
	cfg := logs.DefaultConfig()
	cfg.Nodes = 2 * topology.NodesPerCabinet
	cfg.Duration = 3 * time.Hour
	cfg.BaseRates = map[model.EventType]float64{
		model.Lustre: 0.6,
		model.MemECC: 0.4,
	}
	cfg.Storms = nil
	cfg.Jobs.ArrivalsPerHour = 0
	cfg.Causal = []logs.CausalRule{{
		Cause: model.Lustre, Effect: model.AppAbort,
		Prob: 0.5, Lag: 30 * time.Second, Jitter: 20 * time.Second,
	}}
	corpus := logs.Generate(cfg)
	if err := fw.LoadGroundTruth(corpus); err != nil {
		t.Fatal(err)
	}
	from, to := cfg.Start, cfg.Start.Add(cfg.Duration)
	m, err := fw.TrainPredictor(from, to, predict.Config{
		Window:       time.Minute,
		Horizon:      time.Minute,
		FailureTypes: map[model.EventType]bool{model.AppAbort: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if top := m.Precursors(); top[0] != model.Lustre {
		t.Fatalf("top precursor through framework = %s, want LUSTRE", top[0])
	}
}
