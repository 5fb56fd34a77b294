package compute

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func rangeTasks(n, perTask int) []ScanTask[int] {
	tasks := make([]ScanTask[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func(yield func(int) error) error {
			for j := 0; j < perTask; j++ {
				if err := yield(i*perTask + j); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return tasks
}

func TestStreamScanOrdered(t *testing.T) {
	for _, par := range []int{1, 2, 4, 16} {
		var got []int
		err := StreamScan(NewEngine(Config{Parallelism: par}), rangeTasks(23, 7),
			func(batch []int) error {
				got = append(got, batch...)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 23*7 {
			t.Fatalf("par=%d: got %d items, want %d", par, len(got), 23*7)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("par=%d: item %d = %d, out of global order", par, i, v)
			}
		}
	}
}

func TestStreamScanTaskError(t *testing.T) {
	boom := errors.New("boom")
	tasks := rangeTasks(10, 3)
	tasks[4] = func(func(int) error) error { return boom }
	err := StreamScan(NewEngine(Config{Parallelism: 4}), tasks,
		func([]int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestStreamScanEmitError(t *testing.T) {
	boom := errors.New("emit boom")
	emitted := 0
	err := StreamScan(NewEngine(Config{Parallelism: 4}), rangeTasks(10, 3),
		func([]int) error {
			if emitted++; emitted == 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want emit boom, got %v", err)
	}
}

func TestStreamScanPanicRecovered(t *testing.T) {
	tasks := rangeTasks(4, 2)
	tasks[1] = func(func(int) error) error { panic("bad record") }
	err := StreamScan(NewEngine(Config{Parallelism: 2}), tasks,
		func([]int) error { return nil })
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

// TestEngineWidthBoundsTasksInFlight holds both scans of a width-w engine
// to at most w tasks running at once.
func TestEngineWidthBoundsTasksInFlight(t *testing.T) {
	for _, w := range []int{1, 3} {
		var inFlight, maxInFlight atomic.Int32
		run := func() {
			v := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if v <= m || maxInFlight.CompareAndSwap(m, v) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		}
		scan := make([]ScanTask[int], 20)
		fold := make([]FoldTask[int], 20)
		for i := range scan {
			scan[i] = func(yield func(int) error) error { run(); return yield(0) }
			fold[i] = func(acc int) (int, int, error) { run(); return acc, 1, nil }
		}
		eng := NewEngine(Config{Parallelism: w})
		if err := StreamScan(eng, scan, func([]int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if m := maxInFlight.Load(); m > int32(w) {
			t.Fatalf("StreamScan: observed %d concurrent tasks on a width-%d engine", m, w)
		}
		maxInFlight.Store(0)
		if _, err := ScanFold(eng, fold, func() int { return 0 }, func(a, b int) int { return a + b }); err != nil {
			t.Fatal(err)
		}
		if m := maxInFlight.Load(); m > int32(w) {
			t.Fatalf("ScanFold: observed %d concurrent tasks on a width-%d engine", m, w)
		}
	}
}

func TestScanFoldDeterministicOrder(t *testing.T) {
	// A non-commutative merge (string concatenation) must still produce
	// the task-order result at any parallelism.
	tasks := make([]FoldTask[string], 12)
	want := ""
	for i := range tasks {
		tasks[i] = func(acc string) (string, int, error) { return acc + fmt.Sprintf("<%d>", i), 1, nil }
		want += fmt.Sprintf("<%d>", i)
	}
	for _, par := range []int{1, 3, 12} {
		eng := NewEngine(Config{Parallelism: par})
		got, err := ScanFold(eng, tasks,
			func() string { return "" },
			func(a, b string) string { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("par=%d: got %q want %q", par, got, want)
		}
		if st := eng.Stats(); st.ScanTasks != 12 || st.ScanRows != 12 {
			t.Fatalf("par=%d: scan stats = %+v, want 12 tasks / 12 rows", par, st)
		}
	}
}

func TestScanFoldError(t *testing.T) {
	eng := NewEngine(Config{Parallelism: 4})
	boom := errors.New("fold boom")
	tasks := make([]FoldTask[int], 8)
	for i := range tasks {
		tasks[i] = func(acc int) (int, int, error) { return acc + i, 4, nil }
	}
	tasks[6] = func(acc int) (int, int, error) { return acc, 0, boom }
	_, err := ScanFold(eng, tasks,
		func() int { return 0 },
		func(a, b int) int { return a + b })
	if !errors.Is(err, boom) {
		t.Fatalf("want fold boom, got %v", err)
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	eng := NewEngine(Config{Parallelism: 1})
	boom := errors.New("boom")
	tasks := []FoldTask[int]{func(int) (int, int, error) { return 0, 0, boom }}
	_, err := ScanFold(eng, tasks,
		func() int { return 0 },
		func(a, b int) int { return a + b })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := eng.Stats(); st.ScanTasks != 0 {
		t.Fatalf("scan stats = %+v, want no completed tasks", st)
	}
}

func TestScanFoldPanicRecovered(t *testing.T) {
	eng := NewEngine(Config{Parallelism: 1})
	var ran atomic.Int32
	tasks := make([]FoldTask[int], 8)
	for i := range tasks {
		tasks[i] = func(acc int) (int, int, error) {
			ran.Add(1)
			return acc + i, 1, nil
		}
	}
	tasks[2] = func(int) (int, int, error) { panic("bad record") }
	// One worker claims tasks in order, so nothing after the panic may run.
	_, err := ScanFold(eng, tasks,
		func() int { return 0 },
		func(a, b int) int { return a + b })
	if err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d tasks ran, want the 2 before the panic and none after", n)
	}
	if st := eng.Stats(); st.ScanTasks != 2 {
		t.Fatalf("scan stats = %+v, want 2 completed tasks", st)
	}
}

func TestEngineDefaults(t *testing.T) {
	eng := NewEngine(Config{})
	if len(eng.Workers()) != 1 {
		t.Fatalf("default workers = %v", eng.Workers())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for w, want := range map[int]int{0: 3, -1: 3, 1: 1, 5: 5} {
		if got := NewEngine(Config{Parallelism: w}).width; got != want {
			t.Fatalf("width of Parallelism %d under GOMAXPROCS 3 = %d, want %d", w, got, want)
		}
	}
	if err := StreamScan(eng, rangeTasks(3, 2),
		func([]int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	if eng.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestScanStatsCounted(t *testing.T) {
	eng := NewEngine(Config{})
	if err := StreamScan(eng, rangeTasks(5, 10),
		func([]int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.ScanTasks != 5 || st.ScanRows != 50 {
		t.Fatalf("scan stats = %+v, want 5 tasks / 50 rows", st)
	}
}
