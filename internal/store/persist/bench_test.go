package persist

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
)

// BenchmarkEncodeTS proves the fixed-width digit encoder beats the
// fmt.Sprintf("%019d", ts) it replaced; the encoder runs on every write
// and every scan-task range construction.
func BenchmarkEncodeTS(b *testing.B) {
	b.Run("manual", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := EncodeTS(int64(1500000000 + i)); len(got) != 19 {
				b.Fatal(got)
			}
		}
	})
	b.Run("sprintf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := fmt.Sprintf("%019d", int64(1500000000+i)); len(got) != 19 {
				b.Fatal(got)
			}
		}
	})
}

func benchSegmentRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = MakeRow(EncodeTS(int64(1000+i))+":src", int64(i+1), []Col{
			C("amount", "3"),
			C("source", "c0-0c1s2n0"),
			C("raw", "machine check exception bank 4 corrected"),
		})
	}
	return rows
}

func benchSegment(b *testing.B, rows []Row) *Segment {
	w := NewWriter("events", "p", 1)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	seg, err := w.Finish(filepath.Join(b.TempDir(), "bench.seg"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { seg.Close() })
	return seg
}

// BenchmarkSegmentScan measures the block-batched on-disk read path
// through the Row adapter: one buffer read, one string conversion, and one
// column arena per 64-row block, with zero per-row decode allocations.
func BenchmarkSegmentScan(b *testing.B) {
	rows := benchSegmentRows(8192)
	seg := benchSegment(b, rows)
	b.ReportAllocs()
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := seg.Scan(Range{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			if len(r.Key) == 0 {
				b.Fatal("empty key")
			}
			n++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		it.Close()
		if n != len(rows) {
			b.Fatalf("scanned %d rows, want %d", n, len(rows))
		}
	}
}

// BenchmarkSegmentScanBatches measures the same read through the batch
// path with a one-column projection: decode in place, nothing allocated
// per block.
func BenchmarkSegmentScanBatches(b *testing.B) {
	rows := benchSegmentRows(8192)
	seg := benchSegment(b, rows)
	amount := InternColumn("amount")
	cfg := ScanConfig{Project: []uint32{amount}}
	b.ReportAllocs()
	b.SetBytes(int64(len(rows)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := ChainBatches(Range{}, false, []*Segment{seg}, []ScanConfig{cfg})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			batch, ok := bs.Next()
			if !ok {
				break
			}
			if len(batch.Col(amount)) != batch.Len() {
				b.Fatal("ragged batch")
			}
			n += batch.Len()
		}
		if err := bs.Err(); err != nil {
			b.Fatal(err)
		}
		bs.Close()
		if n != len(rows) {
			b.Fatalf("scanned %d rows, want %d", n, len(rows))
		}
	}
}

// BenchmarkScanBatches holds the two codec generations side by side: the
// event-shaped fixture as the v8 writer left it and re-encoded as v9 with
// its raw text under the column name templates code, batch-scanned whole,
// for a heat map's two columns, and for the raw text. Run at -benchtime 1x
// by `make bench-smoke`, so neither reader can rot.
func BenchmarkScanBatches(b *testing.B) {
	hs := hostileSegs()[0]
	v8 := openV8(b, hs)
	rawID := InternColumn("hz-raw")
	for i, r := range hs.rows {
		cols := slices.Clone(r.Cols())
		for k := range cols {
			if cols[k].ID == rawID {
				cols[k].ID = templateColID
			}
		}
		hs.rows[i] = MakeRow(r.Key, r.WriteTS, cols)
	}
	for _, gen := range []struct {
		name string
		seg  *Segment
		raw  uint32
	}{{"v8", v8, rawID}, {"v9", writeV9(b, b.TempDir(), hs, 1), templateColID}} {
		projections := []struct {
			name    string
			project []uint32
		}{
			{"all", nil},
			{"source+amount", []uint32{InternColumn("hz-source"), InternColumn("hz-amount")}},
			{"raw", []uint32{gen.raw}},
		}
		for _, p := range projections {
			b.Run(gen.name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(gen.seg.meta.DataLen)
				for i := 0; i < b.N; i++ {
					sc, err := ChainBatches(Range{}, false, []*Segment{gen.seg}, []ScanConfig{{Project: p.project}})
					if err != nil {
						b.Fatal(err)
					}
					n := 0
					for batch, ok := sc.Next(); ok; batch, ok = sc.Next() {
						n += batch.Len()
						batch.Col(gen.raw)
					}
					if err := sc.Err(); err != nil || n != len(hs.rows) {
						b.Fatalf("scanned %d of %d rows: %v", n, len(hs.rows), err)
					}
					sc.Close()
				}
			})
		}
	}
}

// BenchmarkRowsBlockCodec measures the commitlog record body codec: encode
// writes each distinct column name once per unit, decode resolves IDs with
// zero-copy values.
func BenchmarkRowsBlockCodec(b *testing.B) {
	rows := benchSegmentRows(100)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendRowsBlock(buf[:0], rows)
		}
	})
	b.Run("decode", func(b *testing.B) {
		buf := AppendRowsBlock(nil, rows)
		s := string(buf)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := DecodeRowsBlock(NewStringDec(s), DefaultDict())
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(rows) {
				b.Fatal(len(got))
			}
		}
	})
}

// BenchmarkMergeSorted measures the one last-write-wins merge, collected,
// on a replica reconciliation shape (3 lists, duplicate keys).
func BenchmarkMergeSorted(b *testing.B) {
	base := benchSegmentRows(4096)
	lists := make([][]Row, 3)
	for i := range lists {
		l := make([]Row, len(base))
		copy(l, base)
		for j := range l {
			l[j].WriteTS = int64(i*10000 + j)
		}
		lists[i] = l
	}
	b.ReportAllocs()
	b.SetBytes(int64(3 * len(base)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := MergeRuns(lists...); len(got) != len(base) {
			b.Fatal(len(got))
		}
	}
}
