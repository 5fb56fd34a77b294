package analytics

import (
	"testing"
	"time"

	"hpclog/internal/model"
)

func TestTransferEntropySeries(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	points, err := TransferEntropySeries(f.eng, f.db, model.Lustre, model.AppAbort,
		from, to, 30*time.Second, 30*time.Minute, 15*time.Minute, ScanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 h window, 30 min sub-windows, 15 min step → 11 points.
	if len(points) != 11 {
		t.Fatalf("%d TE points, want 11", len(points))
	}
	for i, p := range points {
		if p.XToY < 0 || p.YToX < 0 {
			t.Fatalf("negative TE at point %d", i)
		}
		if i > 0 && !p.Start.After(points[i-1].Start) {
			t.Fatal("points not time-ordered")
		}
	}
	// The aggregate forward dominance must also show in the point sums.
	sumF, sumR := 0.0, 0.0
	for _, p := range points {
		sumF += p.XToY
		sumR += p.YToX
	}
	if sumF <= sumR {
		t.Fatalf("windowed TE sum forward %.4f <= reverse %.4f", sumF, sumR)
	}
}

func TestTransferEntropySeriesValidation(t *testing.T) {
	f := getFixture(t)
	from, to := f.window()
	if _, err := TransferEntropySeries(f.eng, f.db, model.Lustre, model.AppAbort,
		from, to, 30*time.Second, 0, time.Minute, ScanConfig{}); err == nil {
		t.Fatal("zero sub-window accepted")
	}
	if _, err := TransferEntropySeries(f.eng, f.db, model.Lustre, model.AppAbort,
		from, to, 30*time.Second, 30*time.Second, time.Minute, ScanConfig{}); err == nil {
		t.Fatal("sub-window shorter than two bins accepted")
	}
}
