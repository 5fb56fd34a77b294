//go:build !race

package persist

import (
	"fmt"
	"testing"
)

// TestTemplateDecodeAllocBudget pins the steady state of a projected scan
// of a column in template form: nothing allocated per block, whether a
// consumer reads the templates and their holes or has Col reassemble the
// cells — the holes are decoded into the batch's own vectors, the cells
// into the pooled room sized for them.
func TestTemplateDecodeAllocBudget(t *testing.T) {
	seg, _ := fuzzSection(t)
	var segs []*Segment
	var cfgs []ScanConfig
	for i := 0; i < 20; i++ {
		segs, cfgs = append(segs, seg), append(cfgs, ScanConfig{Project: []uint32{templateColID}})
	}
	for _, reassemble := range []bool{false, true} {
		t.Run(fmt.Sprintf("reassemble=%v", reassemble), func(t *testing.T) {
			sc, err := ChainBatches(Range{}, false, segs, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			templated := 0
			next := func() {
				b, ok := sc.Next()
				if !ok {
					t.Fatalf("chain ended early: %v", sc.Err())
				}
				codes, tmpls, _ := b.Template(templateColID)
				for i, c := range codes {
					if c > 0 {
						templated++
						for _, h := range tmpls[c-1].Holes {
							_ = b.Col(h)[i]
						}
					}
				}
				if reassemble && len(b.Col(templateColID)) != b.Len() {
					t.Fatal("ragged batch")
				}
			}
			blocks := len(seg.meta.Index)
			for i := 0; i < 2*blocks; i++ {
				next() // the first segments size the room and the slots
			}
			if avg := testing.AllocsPerRun(len(segs)*blocks/2, next); avg != 0 {
				t.Fatalf("a steady-state projected block in template form costs %.2f allocations, want 0", avg)
			}
			if templated == 0 {
				t.Fatal("no cell came in template form")
			}
		})
	}
}
