package elasticnet

import (
	"tpascd/internal/perfmodel"
	"tpascd/internal/sparse"
)

// Loss adapts an elastic-net Problem to the engine's Loss interface:
// coordinates are features, the shared vector is w = Aβ (exactly as in
// primal ridge), and the step is the soft-thresholding update of glmnet.
// It satisfies engine.Loss structurally so this package does not depend on
// the engine.
type Loss struct {
	p *Problem
	// cols and norms are the problem's column layout and squared column
	// norms, taken once here so the per-coordinate calls never touch the
	// problem's lazy build.
	cols  *sparse.CSC
	norms []float64
}

// NewLoss returns the elastic-net loss, building the problem's column
// layout now so that no epoch pays for it.
func NewLoss(p *Problem) *Loss { return &Loss{p: p, cols: p.ACols(), norms: p.ColNormsSq()} }

// Problem returns the underlying problem.
func (l *Loss) Problem() *Problem { return l.p }

// Name returns the algorithm tag.
func (l *Loss) Name() string { return "EN-SCD" }

// Form reports the formulation (features ↔ primal).
func (l *Loss) Form() perfmodel.Form { return perfmodel.Primal }

// NumCoords returns the number of features.
func (l *Loss) NumCoords() int { return l.p.M }

// SharedLen returns the number of examples.
func (l *Loss) SharedLen() int { return l.p.N }

// NNZ returns the stored entries of the data matrix.
func (l *Loss) NNZ() int64 { return int64(l.p.A.NNZ()) }

// CoordNZ returns the column a_m.
func (l *Loss) CoordNZ(c int) ([]int32, []float32) { return l.cols.Col(c) }

// Residual reports the residual inner-product form Σ val·(y−w).
func (l *Loss) Residual() bool { return true }

// Labels returns the example labels.
func (l *Loss) Labels() []float32 { return l.p.Y }

// Step computes the exact soft-thresholding coordinate step from the
// residual inner product dp and the current weight.
func (l *Loss) Step(c int, dp float64, cur float32) float32 {
	return l.p.stepFromDot(l.norms[c], dp, cur)
}

// UpdateCoeff returns the shared-vector coefficient: the step itself.
func (l *Loss) UpdateCoeff(c int, delta float32) float32 { return delta }

// Gap returns the KKT subgradient violation, the elastic-net analogue of
// the duality gap (recomputed from the model alone).
func (l *Loss) Gap(model []float32) float64 { return l.p.OptimalityViolation(model) }

// RecomputeShared rebuilds w = Aβ into dst.
func (l *Loss) RecomputeShared(dst, model []float32) { l.p.A.MulVec(dst, model) }

// DataBytes returns the approximate device-resident footprint of the CSC
// matrix, per-feature norms and permutation, and labels.
func (l *Loss) DataBytes() int64 {
	return l.cols.Bytes() + int64(l.p.M)*12 + int64(l.p.N)*4
}
