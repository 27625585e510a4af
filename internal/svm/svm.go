// Package svm implements stochastic dual coordinate ascent (SDCA) for
// support-vector-machine classification — the second extension the paper's
// introduction motivates ("stochastic coordinate methods are used ... to
// solve other problems such as ... support vector machines"), following
// the SDCA formulation of Shalev-Shwartz & Zhang (reference [9] of the
// paper).
//
// The primal problem, with hinge loss and labels y ∈ {−1,+1}ᴺ, is
//
//	P(w) = λ/2·‖w‖² + 1/N·Σᵢ max(0, 1 − yᵢ⟨w, x̄ᵢ⟩),
//
// and its dual, with box-constrained variables α ∈ [0,1]ᴺ, is
//
//	D(α) = 1/N·Σᵢ αᵢ − 1/(2λN²)·‖Σᵢ αᵢ yᵢ x̄ᵢ‖².
//
// The solver maintains the shared vector w = Σᵢ αᵢ yᵢ x̄ᵢ/(λN) — exactly
// the role w̄ plays for dual ridge regression — and each coordinate step
// is the exact box-clipped maximizer
//
//	Δᵢ = clip( αᵢ + λN·(1 − yᵢ⟨w, x̄ᵢ⟩)/‖x̄ᵢ‖², 0, 1 ) − αᵢ.
//
// Because the structure (one coordinate per example, sparse row access,
// shared-vector atomic updates) is identical to dual ridge SCD, the same
// TPA-SCD execution strategy applies on the GPU simulator.
package svm

import (
	"errors"
	"fmt"
	"math"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/sparse"
)

// Problem is an SVM training problem.
type Problem struct {
	// A is the N×M data matrix in CSR (row = example) layout.
	A *sparse.CSR
	// Y holds ±1 labels.
	Y []float32
	// Lambda is the regularization constant λ > 0.
	Lambda float64
	// N, M are examples and features.
	N, M int

	rowNormsSq []float64
	// nGlobal is the N of the update rules and of the 1/(λN) shared-vector
	// scale: N itself for a whole problem, the example count across all
	// ranks when the rows are one rank's Partition.
	nGlobal int
}

// NewProblem validates and wraps the training data.
func NewProblem(a *sparse.CSR, y []float32, lambda float64) (*Problem, error) {
	if a == nil {
		return nil, errors.New("svm: nil data matrix")
	}
	if len(y) != a.NumRows {
		return nil, fmt.Errorf("svm: %d labels for %d examples", len(y), a.NumRows)
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("svm: label %v at example %d is not ±1", v, i)
		}
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("svm: lambda must be positive, got %g", lambda)
	}
	return &Problem{
		A:          a,
		Y:          y,
		Lambda:     lambda,
		N:          a.NumRows,
		M:          a.NumCols,
		rowNormsSq: a.RowNormsSq(),
		nGlobal:    a.NumRows,
	}, nil
}

// PrimalValue evaluates P(w).
func (p *Problem) PrimalValue(w []float32) float64 {
	var hinge float64
	for i := 0; i < p.N; i++ {
		idx, val := p.A.Row(i)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(w[idx[k]])
		}
		if m := 1 - float64(p.Y[i])*dp; m > 0 {
			hinge += m
		}
	}
	var wsq float64
	for _, v := range w {
		wsq += float64(v) * float64(v)
	}
	return p.Lambda/2*wsq + hinge/float64(p.N)
}

// DualValue evaluates D(α) given the consistent shared vector
// w = Σ αᵢyᵢx̄ᵢ/(λN).
func (p *Problem) DualValue(alpha, w []float32) float64 {
	var asum, wsq float64
	for _, a := range alpha {
		asum += float64(a)
	}
	for _, v := range w {
		wsq += float64(v) * float64(v)
	}
	// ‖Σαᵢyᵢx̄ᵢ‖²/(2λN²) = λ‖w‖²/2.
	return asum/float64(p.N) - p.Lambda/2*wsq
}

// Gap returns the duality gap P(w) − D(α) ≥ 0 for a consistent pair; the
// shared vector is recomputed from α so drift cannot hide a violation.
func (p *Problem) Gap(alpha []float32) float64 {
	w := p.SharedFromAlpha(alpha)
	g := p.PrimalValue(w) - p.DualValue(alpha, w)
	if g < 0 {
		g = -g
	}
	return g
}

// SharedFromAlpha recomputes w = Σ αᵢyᵢx̄ᵢ/(λN) from scratch.
func (p *Problem) SharedFromAlpha(alpha []float32) []float32 {
	w := make([]float32, p.M)
	p.sharedFromAlphaInto(w, alpha)
	return w
}

// sharedFromAlphaInto rebuilds w = Σ αᵢyᵢx̄ᵢ/(λN) into w, overwriting it.
func (p *Problem) sharedFromAlphaInto(w, alpha []float32) {
	for i := range w {
		w[i] = 0
	}
	scale := p.sharedScale()
	for i := 0; i < p.N; i++ {
		if alpha[i] == 0 {
			continue
		}
		c := float32(float64(alpha[i]) * float64(p.Y[i]) * scale)
		idx, val := p.A.Row(i)
		for k := range idx {
			w[idx[k]] += val[k] * c
		}
	}
}

// stepFromDot turns the margin inner product dp = ⟨w, x̄ᵢ⟩ and the current
// dual variable into the exact box-clipped step.
func (p *Problem) stepFromDot(i int, dp float64, alphaI float32) float32 {
	if p.rowNormsSq[i] == 0 {
		return 0
	}
	grad := (1 - float64(p.Y[i])*dp) * p.Lambda * float64(p.nGlobal) / p.rowNormsSq[i]
	next := float64(alphaI) + grad
	if next < 0 {
		next = 0
	} else if next > 1 {
		next = 1
	}
	return float32(next - float64(alphaI))
}

// Delta computes the exact box-clipped coordinate step for example i given
// the shared vector w and current dual variable alphaI; the new value is
// alphaI+Delta ∈ [0,1].
func (p *Problem) Delta(i int, w []float32, alphaI float32) float32 {
	idx, val := p.A.Row(i)
	var dp float64
	for k := range idx {
		dp += float64(val[k]) * float64(w[idx[k]])
	}
	return p.stepFromDot(i, dp, alphaI)
}

// AccuracyW returns the training accuracy of sign(⟨w, x̄ᵢ⟩).
func (p *Problem) AccuracyW(w []float32) float64 {
	correct := 0
	for i := 0; i < p.N; i++ {
		idx, val := p.A.Row(i)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(w[idx[k]])
		}
		if (dp >= 0) == (p.Y[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(p.N)
}

// sharedScale is the coefficient 1/(λN) relating dual steps to the
// maintained primal vector.
func (p *Problem) sharedScale() float64 { return 1 / (p.Lambda * float64(p.nGlobal)) }

// Sequential is single-threaded SDCA (Algorithm 1 of the paper with the
// hinge-loss update), running on the shared engine.
type Sequential struct {
	*engine.Sequential
	problem *Problem
}

// NewSequential returns a sequential SDCA solver.
func NewSequential(p *Problem, seed uint64) *Sequential {
	return &Sequential{engine.NewSequential(NewLoss(p), seed), p}
}

// Alpha returns the dual variables (aliases solver state).
func (s *Sequential) Alpha() []float32 { return s.Model() }

// Weights returns the maintained primal weight vector w.
func (s *Sequential) Weights() []float32 { return s.SharedVector() }

// Accuracy returns the training accuracy of sign(⟨w, x̄ᵢ⟩).
func (s *Sequential) Accuracy() float64 { return s.problem.AccuracyW(s.SharedVector()) }

// NewAtomic returns an asynchronous SDCA solver: threads goroutines with
// atomic (lossless) shared-vector updates — the A-SCD scheme of the ridge
// solvers applied to the hinge loss. The box constraint keeps every
// iterate dual-feasible even under stale shared-vector reads.
func NewAtomic(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewAtomic(NewLoss(p), threads, seed)
}

// NewWild returns a PASSCoDe-Wild SDCA solver with racy shared-vector
// updates.
func NewWild(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewWild(NewLoss(p), threads, seed)
}

// GPU runs SDCA as a TPA-SCD kernel on a simulated device: one thread
// block per example, the same two-phase structure as Algorithm 2 of the
// paper with the box-clipped hinge update in phase 2.
type GPU struct {
	*engine.GPU
	problem *Problem
}

// NewGPU places the problem on the device.
func NewGPU(p *Problem, dev *gpusim.Device, blockSize int, seed uint64) (*GPU, error) {
	g, err := engine.NewGPU(NewLoss(p), dev, blockSize, seed)
	if err != nil {
		return nil, err
	}
	return &GPU{g, p}, nil
}

// Alpha returns a host copy of the dual variables.
func (g *GPU) Alpha() []float32 { return g.Model() }

// Accuracy returns the training accuracy of sign(⟨w, x̄ᵢ⟩) using the
// device-resident weight vector.
func (g *GPU) Accuracy() float64 { return g.problem.AccuracyW(g.SharedVector()) }

// Box checks the dual feasibility 0 ≤ α ≤ 1 and returns the worst
// violation (0 when feasible).
func Box(alpha []float32) float64 {
	worst := 0.0
	for _, a := range alpha {
		v := 0.0
		if a < 0 {
			v = float64(-a)
		} else if a > 1 {
			v = float64(a) - 1
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// HingeLoss returns max(0, 1−m).
func HingeLoss(margin float64) float64 { return math.Max(0, 1-margin) }
