package analytics

import (
	"fmt"
	"math"
)

// TransferEntropyBetween measures transfer entropy in both directions
// between two event-count series of the same bins, reduced to presence
// indicators (count > 0) — the "investigation of correlation between two
// event occurrences within a selected time interval, which can provide a
// causal relationship between the two" (Section III-C).
func TransferEntropyBetween(x, y []int) (TEResult, error) {
	bx, by := binary(x), binary(y)
	xy, err := TransferEntropy(bx, by)
	if err != nil {
		return TEResult{}, err
	}
	yx, err := TransferEntropy(by, bx)
	if err != nil {
		return TEResult{}, err
	}
	return TEResult{XToY: xy, YToX: yx}, nil
}

// binary reduces counts to presence indicators, the symbolization used
// for information-theoretic measures.
func binary(counts []int) []int {
	out := make([]int, len(counts))
	for i, c := range counts {
		if c > 0 {
			out[i] = 1
		}
	}
	return out
}

// TransferEntropy computes TE(X→Y) in bits for binary series with history
// length one:
//
//	TE = Σ p(y⁺, y, x) log₂[ p(y⁺|y, x) / p(y⁺|y) ]
//
// where y⁺ is y at t+1. A positive TE(X→Y) exceeding TE(Y→X) indicates
// information flow from X to Y — the causal direction plot of Fig 7-top.
func TransferEntropy(x, y []int) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("analytics: series lengths differ: %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("analytics: series too short for transfer entropy")
	}
	// Joint counts over (y_{t+1}, y_t, x_t) ∈ {0,1}³.
	var joint [2][2][2]float64
	for t := 0; t < n-1; t++ {
		joint[bit(y[t+1])][bit(y[t])][bit(x[t])]++
	}
	total := float64(n - 1)
	te := 0.0
	for yn := 0; yn < 2; yn++ {
		for yp := 0; yp < 2; yp++ {
			for xp := 0; xp < 2; xp++ {
				pj := joint[yn][yp][xp] / total
				if pj == 0 {
					continue
				}
				// p(y⁺|y,x) and p(y⁺|y)
				denomYX := joint[0][yp][xp] + joint[1][yp][xp]
				denomY := joint[0][yp][0] + joint[0][yp][1] + joint[1][yp][0] + joint[1][yp][1]
				numY := joint[yn][yp][0] + joint[yn][yp][1]
				condYX := joint[yn][yp][xp] / denomYX
				condY := numY / denomY
				te += pj * math.Log2(condYX/condY)
			}
		}
	}
	if te < 0 {
		te = 0 // clamp tiny negative rounding residue
	}
	return te, nil
}

func bit(v int) int {
	if v > 0 {
		return 1
	}
	return 0
}

// TEResult pairs both directions of a transfer entropy measurement.
type TEResult struct {
	XToY float64
	YToX float64
}

// Direction summarizes which way information flows, or "" when symmetric
// within tolerance.
func (r TEResult) Direction(tol float64) string {
	switch {
	case r.XToY > r.YToX+tol:
		return "x->y"
	case r.YToX > r.XToY+tol:
		return "y->x"
	default:
		return ""
	}
}
