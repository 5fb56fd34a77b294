package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestQuantileAccuracy: against a known sample set, every quantile must
// land within the histogram's documented ~3% relative error.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Hist
	samples := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Log-uniform over 10µs..1s — the latency shape load runs produce.
		v := math.Exp(rng.Float64()*math.Log(1e5)) * 1e4
		samples = append(samples, v)
		h.Record(time.Duration(v))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)-1))]
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-want) / want; rel > 0.04 {
			t.Fatalf("q%.3f: got %.0f want %.0f (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Count() != 50000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(5 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5*time.Millisecond {
			t.Fatalf("single-sample q%.2f = %v", q, got)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Hist
	for i := 1; i <= 1000; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
	}
	for i := 1001; i <= 2000; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 2000 {
		t.Fatalf("merged count %d", a.Count())
	}
	med := a.Quantile(0.5)
	if med < 950*time.Microsecond || med > 1100*time.Microsecond {
		t.Fatalf("merged median %v", med)
	}
	if a.Max() < 1990*time.Microsecond {
		t.Fatalf("merged max %v", a.Max())
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Hist
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if h.Count() != 80000 {
		t.Fatalf("lost samples: %d", h.Count())
	}
}
