package svm

import (
	"fmt"
	"math"

	"tpascd/internal/sparse"
)

// Distributed SDCA for SVMs. This is the problem CoCoA — reference [7] of
// the paper, "communication-efficient distributed dual coordinate ascent"
// — was originally built for: examples partitioned across K workers, one
// local SDCA epoch per round, shared weight-vector deltas aggregated
// synchronously. The round itself is dist.Worker's, the local epoch an
// engine driver's; what is SVM's own is below. The adaptive aggregation
// extends the paper's Algorithm 4 idea to the SVM dual: D(α+γΔα) is a
// concave quadratic in γ with the closed-form maximizer
//
//	γ* = (ΣᵢΔαᵢ/N − λ⟨w, Δw⟩) / (λ‖Δw‖²),
//
// clamped to the box-feasible range so every αᵢ stays in [0,1].

// Partition is one rank's share of a distributed SVM problem: its local
// examples (global columns) under the global example count. It is the
// hinge-dual Loss the rank's local driver runs — steps and shared-vector
// coefficients scale with the global N — and the SVM side of a CoCoA round
// (dist.Family). Its Problem covers the local rows only; objective values
// are evaluated collectively.
type Partition struct {
	*Loss
}

// NewPartition builds one rank's partition from its rows of the data
// matrix and their ±1 labels. nGlobal is the total example count across
// all ranks.
func NewPartition(localA *sparse.CSR, localY []float32, lambda float64, nGlobal int) (*Partition, error) {
	p, err := NewProblem(localA, localY, lambda)
	if err != nil {
		return nil, err
	}
	p.nGlobal = nGlobal
	pt := &Partition{NewLoss(p)}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	return pt, nil
}

// Validate checks that the global example count covers the local rows.
func (pt *Partition) Validate() error {
	if pt.p.nGlobal < pt.p.N || pt.p.nGlobal <= 0 {
		return fmt.Errorf("svm: global example count %d for a partition of %d", pt.p.nGlobal, pt.p.N)
	}
	return nil
}

// Dims returns the number of local examples and the number of features.
func (pt *Partition) Dims() (coords, shared int) { return pt.p.N, pt.p.M }

// Gap panics: a partition holds one rank's examples, and the duality gap is
// a property of the whole model. Distributed runs evaluate it collectively
// (dist.Worker.Gap).
func (pt *Partition) Gap(alpha []float32) float64 {
	panic("svm: a partition has no convergence certificate of its own; use dist.Worker.Gap")
}

// GammaTerms returns this rank's summands for the box-clamped γ*: ΣΔα over
// the local examples and, in this rank's own slot, the largest γ that keeps
// the local α inside the box. The global bound is the minimum over the
// slots (the other ranks' are zero here, so the sum carries each through).
func (pt *Partition) GammaTerms(rank, size int, alpha, prevAlpha []float32) []float64 {
	var deltaSumAlpha float64
	gmax := math.Inf(1)
	for i := range alpha {
		da := float64(alpha[i]) - float64(prevAlpha[i])
		deltaSumAlpha += da
		if da > 0 {
			if lim := (1 - float64(prevAlpha[i])) / da; lim < gmax {
				gmax = lim
			}
		} else if da < 0 {
			if lim := -float64(prevAlpha[i]) / da; lim < gmax {
				gmax = lim
			}
		}
	}
	slots := make([]float64, size+1)
	slots[rank] = gmax
	slots[size] = deltaSumAlpha
	return slots
}

// GammaFromSums maximizes D(α + γΔα) over γ, clamped to box feasibility;
// a degenerate round falls back to averaging.
func (pt *Partition) GammaFromSums(sums []float64, prevW, deltaSum []float32) float64 {
	k := len(sums) - 1
	globalGmax := math.Inf(1)
	for r := 0; r < k; r++ {
		if sums[r] < globalGmax {
			globalGmax = sums[r]
		}
	}
	deltaSumAlpha := sums[k]

	// Shared-side scalars from globally identical vectors.
	var wDot, dSq float64
	for j := range deltaSum {
		dj := float64(deltaSum[j])
		wDot += float64(prevW[j]) * dj
		dSq += dj * dj
	}
	lambda := pt.p.Lambda
	den := lambda * dSq
	if den <= 0 {
		return 1.0 / float64(k)
	}
	gamma := (deltaSumAlpha/float64(pt.p.nGlobal) - lambda*wDot) / den
	if math.IsNaN(gamma) || gamma <= 0 {
		return 1.0 / float64(k)
	}
	if gamma > globalGmax {
		gamma = globalGmax
	}
	return gamma
}

// GapTerms returns this rank's summands of the duality gap: the hinge
// losses and Σα of its examples.
func (pt *Partition) GapTerms(alpha, w []float32) []float64 {
	a, y := pt.p.A, pt.p.Y
	var hinge, alphaSum float64
	for i := 0; i < a.NumRows; i++ {
		idx, val := a.Row(i)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(w[idx[k]])
		}
		if m := 1 - float64(y[i])*dp; m > 0 {
			hinge += m
		}
		alphaSum += float64(alpha[i])
	}
	return []float64{hinge, alphaSum}
}

// GapFromSums finishes P(w) − D(α) from the summed terms; the
// weight-vector terms are global already.
func (pt *Partition) GapFromSums(sums []float64, w []float32) float64 {
	hinge, alphaSum := sums[0], sums[1]
	var wsq float64
	for _, v := range w {
		wsq += float64(v) * float64(v)
	}
	lambda := pt.p.Lambda
	n := float64(pt.p.nGlobal)
	pv := lambda/2*wsq + hinge/n
	dd := alphaSum/n - lambda/2*wsq
	g := pv - dd
	if g < 0 {
		g = -g
	}
	return g
}
