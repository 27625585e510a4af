// Package elasticnet implements stochastic coordinate descent for
// elastic-net-regularized linear regression — the first of the two
// extensions the paper's introduction motivates ("stochastic coordinate
// methods are used in the field of machine learning to solve other
// problems such as regression with elastic net regularization as well as
// support vector machines"), and the problem class of the glmnet paper
// the sequential algorithm is taken from (Friedman, Hastie & Tibshirani,
// reference [4]).
//
// The objective, in glmnet parameterization, is
//
//	F(β) = 1/(2N)·‖Aβ − y‖² + λ·((1−α)/2·‖β‖² + α·‖β‖₁),
//
// with mixing parameter α ∈ [0,1]: α=0 is ridge regression (and the
// coordinate update provably reduces to eq. 2 of the paper — see the
// tests), α=1 is the lasso. The exact one-dimensional minimizer is the
// soft-thresholding update
//
//	β_m ← S(c_m, λα) / u,   c_m = (⟨y−w, a_m⟩ + ‖a_m‖²·β_m)/N,
//	u = ‖a_m‖²/N + λ(1−α),  S(c,t) = sign(c)·max(|c|−t, 0),
//
// where w = Aβ is the same shared vector the ridge solvers maintain. The
// solvers are the engine drivers running this package's Loss: sequential,
// async-atomic, wild, and the TPA-SCD kernel (thread block per coordinate,
// atomic shared-vector updates) all carry over unchanged.
package elasticnet

import (
	"errors"
	"fmt"
	"math"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/ridge"
)

// Problem is an elastic-net training problem. It reuses the ridge Problem
// for data storage and adds the L1/L2 mixing parameter.
type Problem struct {
	*ridge.Problem
	// Alpha is the elastic-net mixing parameter in [0,1]: 0 = ridge,
	// 1 = lasso.
	Alpha float64
}

// NewProblem wraps a ridge problem with a mixing parameter.
func NewProblem(p *ridge.Problem, alpha float64) (*Problem, error) {
	if p == nil {
		return nil, errors.New("elasticnet: nil problem")
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("elasticnet: alpha %g outside [0,1]", alpha)
	}
	return &Problem{Problem: p, Alpha: alpha}, nil
}

// Objective evaluates F(β), recomputing Aβ.
func (p *Problem) Objective(beta []float32) float64 {
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	return p.ObjectiveW(beta, w)
}

// ObjectiveW evaluates F given a consistent shared vector w = Aβ.
func (p *Problem) ObjectiveW(beta, w []float32) float64 {
	var loss, l2, l1 float64
	for i := range w {
		r := float64(w[i]) - float64(p.Y[i])
		loss += r * r
	}
	for _, b := range beta {
		fb := float64(b)
		l2 += fb * fb
		l1 += math.Abs(fb)
	}
	return loss/(2*float64(p.N)) + p.Lambda*((1-p.Alpha)/2*l2+p.Alpha*l1)
}

// SoftThreshold returns sign(c)·max(|c|−t, 0).
func SoftThreshold(c, t float64) float64 {
	switch {
	case c > t:
		return c - t
	case c < -t:
		return c + t
	default:
		return 0
	}
}

// stepFromDot turns the residual inner product dp = ⟨y−w, a_m⟩, the
// column's squared norm ‖a_m‖² and the current weight into the exact
// soft-thresholding step.
func (p *Problem) stepFromDot(normSq, dp float64, betaM float32) float32 {
	n := float64(p.N)
	c := (dp + normSq*float64(betaM)) / n
	u := normSq/n + p.Lambda*(1-p.Alpha)
	if u <= 0 {
		return 0 // empty column with pure-lasso regularization
	}
	return float32(SoftThreshold(c, p.Lambda*p.Alpha)/u - float64(betaM))
}

// Delta computes the exact coordinate step for feature m given the shared
// vector w and the current weight. The new weight is betaM+Delta.
func (p *Problem) Delta(m int, w []float32, betaM float32) float32 {
	idx, val := p.ACols().Col(m)
	var dp float64
	for k := range idx {
		i := idx[k]
		dp += float64(val[k]) * (float64(p.Y[i]) - float64(w[i]))
	}
	return p.stepFromDot(p.ColNormSq(m), dp, betaM)
}

// OptimalityViolation returns the maximum subgradient violation across
// coordinates: the elastic-net analogue of the duality gap used by the
// ridge solvers (the L1 term makes the Fenchel gap less convenient, so the
// KKT residual is the standard certificate — glmnet uses the same).
func (p *Problem) OptimalityViolation(beta []float32) float64 {
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	n := float64(p.N)
	cols := p.ACols()
	var worst float64
	for m := 0; m < p.M; m++ {
		idx, val := cols.Col(m)
		var dp float64
		for k := range idx {
			i := idx[k]
			dp += float64(val[k]) * (float64(w[i]) - float64(p.Y[i]))
		}
		grad := dp/n + p.Lambda*(1-p.Alpha)*float64(beta[m])
		t := p.Lambda * p.Alpha
		var v float64
		switch {
		case beta[m] > 0:
			v = math.Abs(grad + t)
		case beta[m] < 0:
			v = math.Abs(grad - t)
		default:
			v = math.Max(0, math.Abs(grad)-t)
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// NNZWeights counts non-zero model weights (the sparsity the L1 term buys).
func NNZWeights(beta []float32) int {
	n := 0
	for _, b := range beta {
		if b != 0 {
			n++
		}
	}
	return n
}

// Sequential is the glmnet-style cyclic/stochastic coordinate descent
// solver (Algorithm 1 of the paper with the soft-thresholding update),
// running on the shared engine.
type Sequential struct {
	*engine.Sequential
	problem *Problem
}

// NewSequential returns a sequential elastic-net solver.
func NewSequential(p *Problem, seed uint64) *Sequential {
	return &Sequential{engine.NewSequential(NewLoss(p), seed), p}
}

// Objective returns F at the current iterate.
func (s *Sequential) Objective() float64 {
	return s.problem.ObjectiveW(s.Model(), s.SharedVector())
}

// NewAtomic returns an asynchronous elastic-net solver: threads goroutines
// with atomic (lossless) shared-vector updates — the A-SCD scheme applied
// to the soft-thresholding update.
func NewAtomic(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewAtomic(NewLoss(p), threads, seed)
}

// NewWild returns a PASSCoDe-Wild elastic-net solver with racy
// shared-vector updates.
func NewWild(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewWild(NewLoss(p), threads, seed)
}

// GPU runs the same soft-thresholding coordinate descent as a TPA-SCD
// kernel on a simulated device: one thread block per feature, strided
// partial inner product, tree reduction, atomic write-back — Algorithm 2
// with the update rule swapped.
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

// Objective returns F at the current iterate.
func (g *GPU) Objective() float64 {
	return g.problem.ObjectiveW(g.GPU.Model(), g.SharedVector())
}
