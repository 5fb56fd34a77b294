// Extension benchmarks: the Section V roadmap features (event mining,
// application profiles, reliability statistics) and the CQL layer. These
// have no corresponding paper figure; they characterize the cost of the
// future-work capabilities DESIGN.md section 6 lists.
package hpclog_test

import (
	"fmt"
	"testing"
	"time"

	"hpclog/internal/analytics"
	"hpclog/internal/cql"
	"hpclog/internal/mining"
	"hpclog/internal/model"
	"hpclog/internal/predict"
	"hpclog/internal/profile"
	"hpclog/internal/store"
	"hpclog/internal/topology"
)

func BenchmarkExt_Coalesce(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var nEpisodes int
	for i := 0; i < b.N; i++ {
		eps := mining.Coalesce(f.corpus.Events, 30*time.Second, false)
		nEpisodes = len(eps)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(f.corpus.Events))/float64(nEpisodes), "compression")
}

func BenchmarkExt_MineRules(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.MineRules(f.corpus.Events, time.Minute, 0.01, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_MineSequences(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.MineSequences(f.corpus.Events, time.Minute, 10, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_DetectComposite(b *testing.B) {
	f := getFixture(b)
	def := mining.CompositeDef{
		Name:       "NODE_FAILURE_CASCADE",
		Members:    []model.EventType{model.KernelPanic, model.AppAbort},
		Window:     time.Minute,
		SameSource: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.DetectComposite(f.corpus.Events, def); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_BuildProfiles(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		profiles := profile.Build(f.corpus.Events, f.corpus.Runs)
		n = len(profiles)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "apps")
}

func BenchmarkExt_Reliability(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytics.Interarrivals(f.corpus.Events, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := analytics.FailuresByComponent(f.corpus.Events, nil, topology.LevelCabinet); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_CQLSelect(b *testing.B) {
	f := getFixture(b)
	sess := &cql.Session{DB: f.db, CL: store.One}
	hour := model.HourOf(f.cfg.Storms[0].Start)
	q := fmt.Sprintf("SELECT source, amount FROM event_by_time WHERE partition = '%d:LUSTRE' LIMIT 100", hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkExt_CQLParse(b *testing.B) {
	q := "SELECT source, amount FROM event_by_time WHERE partition = '412:MCE' AND key >= '000' AND key < '999' LIMIT 100"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_PredictTrain(b *testing.B) {
	f := getFixture(b)
	cfg := predict.Config{
		Window:       time.Minute,
		Horizon:      time.Minute,
		FailureTypes: map[model.EventType]bool{model.AppAbort: true},
	}
	b.ResetTimer()
	var m *predict.Model
	for i := 0; i < b.N; i++ {
		var err error
		m, err = predict.Train(f.corpus.Events, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(m.LikelihoodRatio(model.Lustre), "lustre-likelihood-ratio")
}

func BenchmarkExt_PredictEvaluate(b *testing.B) {
	f := getFixture(b)
	cfg := predict.Config{
		Window:       time.Minute,
		Horizon:      time.Minute,
		FailureTypes: map[model.EventType]bool{model.AppAbort: true},
	}
	m, err := predict.Train(f.corpus.Events, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ev predict.Evaluation
	for i := 0; i < b.N; i++ {
		ev, err = m.Evaluate(f.corpus.Events, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(ev.Precision, "precision")
	b.ReportMetric(ev.Recall, "recall")
	b.ReportMetric(ev.BaseRate, "base-rate")
}
