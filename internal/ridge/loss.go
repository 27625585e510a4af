package ridge

import (
	"tpascd/internal/perfmodel"
	"tpascd/internal/sparse"
)

// Loss adapts a ridge Problem to the engine's Loss interface for either
// formulation: coordinates are features in the primal (eq. 2 of the paper,
// shared vector w = Aβ) and examples in the dual (eq. 4, shared vector
// w̄ = Aᵀα). It satisfies engine.Loss structurally so this package does not
// depend on the engine.
type Loss struct {
	p    *Problem
	form perfmodel.Form
	// numCoords is M (primal) or N (dual); sharedLen is N (primal) or M
	// (dual).
	numCoords, sharedLen int
	nnz                  int64
	// cols is the problem's CSC layout (primal only, nil in the dual) and
	// norms the squared norms of the coordinates: taken once here so the
	// per-coordinate calls never touch the problem's lazy build.
	cols  *sparse.CSC
	norms []float64
}

// NewLoss returns the ridge loss for the given formulation. The primal
// builds the problem's column layout now, so no epoch pays for it; the dual
// never asks for it.
func NewLoss(p *Problem, form perfmodel.Form) *Loss {
	l := &Loss{p: p, form: form}
	if form == perfmodel.Primal {
		l.numCoords, l.sharedLen = p.M, p.N
		l.cols = p.ACols()
		l.norms = p.ColNormsSq()
	} else {
		l.numCoords, l.sharedLen = p.N, p.M
		l.norms = p.rowNormsSq
	}
	l.nnz = int64(p.A.NNZ())
	return l
}

// Problem returns the underlying problem.
func (l *Loss) Problem() *Problem { return l.p }

// Name returns the algorithm tag.
func (l *Loss) Name() string { return "SCD" }

// Form reports the formulation.
func (l *Loss) Form() perfmodel.Form { return l.form }

// NumCoords returns M (primal) or N (dual).
func (l *Loss) NumCoords() int { return l.numCoords }

// SharedLen returns N (primal) or M (dual).
func (l *Loss) SharedLen() int { return l.sharedLen }

// NNZ returns the stored entries of the data matrix.
func (l *Loss) NNZ() int64 { return l.nnz }

// CoordNZ returns the non-zero pattern of coordinate c: the column a_c in
// the primal, the row ā_c in the dual.
func (l *Loss) CoordNZ(c int) ([]int32, []float32) {
	if l.form == perfmodel.Primal {
		return l.cols.Col(c)
	}
	return l.p.A.Row(c)
}

// Residual reports the inner-product form: residual Σ val·(y−w) in the
// primal, plain Σ val·w̄ in the dual.
func (l *Loss) Residual() bool { return l.form == perfmodel.Primal }

// Labels returns the example labels for the primal residual form.
func (l *Loss) Labels() []float32 {
	if l.form == perfmodel.Primal {
		return l.p.Y
	}
	return nil
}

// Step computes the exact closed-form coordinate step (eq. 2 primal, eq. 4
// dual) from the inner product dp and the current weight.
func (l *Loss) Step(c int, dp float64, cur float32) float32 {
	p := l.p
	if l.form == perfmodel.Primal {
		nl := float64(p.N) * p.Lambda
		return float32((dp - nl*float64(cur)) / (l.norms[c] + nl))
	}
	ln := p.Lambda * float64(p.N)
	return float32((p.Lambda*float64(p.Y[c]) - dp - ln*float64(cur)) / (ln + l.norms[c]))
}

// UpdateCoeff returns the shared-vector coefficient: the step itself for
// both ridge formulations.
func (l *Loss) UpdateCoeff(c int, delta float32) float32 { return delta }

// Gap computes the honest duality gap from the model alone.
func (l *Loss) Gap(model []float32) float64 {
	if l.form == perfmodel.Primal {
		return l.p.GapPrimal(model)
	}
	return l.p.GapDual(model)
}

// RecomputeShared rebuilds w = Aβ (primal) or w̄ = Aᵀα (dual) into dst.
func (l *Loss) RecomputeShared(dst, model []float32) {
	if l.form == perfmodel.Primal {
		l.p.A.MulVec(dst, model)
	} else {
		l.p.A.MulTVec(dst, model)
	}
}

// DataBytes returns the approximate device-resident footprint of the
// matrix (coordinate-major), norms, labels and permutation.
func (l *Loss) DataBytes() int64 {
	p := l.p
	if l.form == perfmodel.Primal {
		// CSC matrix + per-feature norms and permutation + labels.
		return l.cols.Bytes() + int64(p.M)*12 + int64(p.N)*4
	}
	// CSR matrix + per-example norms, permutation and labels.
	return p.A.Bytes() + int64(p.N)*16
}
