// Package ridge defines the ridge-regression learning problem exactly as in
// Section II of the paper: the primal objective
//
//	P(β) = 1/(2N)·‖Aβ − y‖² + λ/2·‖β‖²,            β ∈ R^M   (eq. 1)
//
// the dual objective
//
//	D(α) = −N/2·‖α‖² − 1/(2λ)·‖Aᵀα‖² + αᵀy,         α ∈ R^N   (eq. 3)
//
// the per-coordinate exact minimization/maximization update rules (eqs. 2
// and 4), the primal-dual mapping (eqs. 5 and 6) and the duality gap used
// as the scale-free convergence measure throughout the evaluation.
package ridge

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tpascd/internal/linalg"
	"tpascd/internal/sparse"
)

// Problem bundles the training data with the regularization strength and
// the per-coordinate squared norms required by the update rules. It holds
// the matrix row-major; the column-major layout and the column norms, which
// only the primal needs, are built the first time something asks for them,
// so a dual run never pays for them. A Problem is immutable after
// construction (the one-time build is guarded) and safe for concurrent use.
type Problem struct {
	// A is the row-major (CSR) view of the N×M data matrix, used by the
	// dual solvers ("data distributed by example").
	A *sparse.CSR
	// Y holds the N training labels.
	Y []float32
	// Lambda is the regularization parameter λ > 0.
	Lambda float64
	// N and M are the number of examples and features.
	N, M int

	rowNormsSq []float64 // ‖ā_n‖² per example

	colsOnce   sync.Once
	cols       *sparse.CSC // built by ACols
	colNormsSq []float64   // ‖a_m‖² per feature, built with cols
}

// NewProblem builds a Problem from a CSR data matrix, labels and λ. It
// computes the row norms; the CSC layout and the column norms wait for the
// first ACols, ColNormsSq or ColNormSq call.
func NewProblem(a *sparse.CSR, y []float32, lambda float64) (*Problem, error) {
	if a == nil {
		return nil, errors.New("ridge: nil data matrix")
	}
	if len(y) != a.NumRows {
		return nil, fmt.Errorf("ridge: %d labels for %d examples", len(y), a.NumRows)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("ridge: lambda must be positive, got %g", lambda)
	}
	return &Problem{
		A:          a,
		Y:          y,
		Lambda:     lambda,
		N:          a.NumRows,
		M:          a.NumCols,
		rowNormsSq: a.RowNormsSq(),
	}, nil
}

// ACols returns the column-major (CSC) view of the matrix, used by the
// primal solvers ("data distributed by feature"). The first call builds it
// and the column norms; later calls, from any goroutine, return the same
// pointer.
func (p *Problem) ACols() *sparse.CSC {
	p.colsOnce.Do(func() {
		p.cols = p.A.ToCSC()
		p.colNormsSq = p.cols.ColNormsSq()
	})
	return p.cols
}

// ColNormsSq returns ‖a_m‖² for every feature, building the column layout
// on first use. The slice is shared and must not be modified.
func (p *Problem) ColNormsSq() []float64 {
	p.ACols()
	return p.colNormsSq
}

// ColNormSq returns ‖a_m‖² for feature m, building the column layout on
// first use. Loops over many features should take ColNormsSq once instead.
func (p *Problem) ColNormSq(m int) float64 { return p.ColNormsSq()[m] }

// RowNormSq returns ‖ā_n‖² for example n.
func (p *Problem) RowNormSq(n int) float64 { return p.rowNormsSq[n] }

// PrimalValueW evaluates P given β and its consistent shared vector w = Aβ.
// This is the hot-path form: solvers maintain w incrementally.
func (p *Problem) PrimalValueW(beta, w []float32) float64 {
	var loss float64
	for i := range w {
		r := float64(w[i]) - float64(p.Y[i])
		loss += r * r
	}
	return loss/(2*float64(p.N)) + p.Lambda/2*linalg.NormSq(beta)
}

// PrimalValue evaluates P(β), recomputing Aβ from scratch.
func (p *Problem) PrimalValue(beta []float32) float64 {
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	return p.PrimalValueW(beta, w)
}

// DualValueW evaluates D given α and its consistent shared vector w̄ = Aᵀα.
func (p *Problem) DualValueW(alpha, wbar []float32) float64 {
	var ay float64
	for i := range alpha {
		ay += float64(alpha[i]) * float64(p.Y[i])
	}
	return -float64(p.N)/2*linalg.NormSq(alpha) - linalg.NormSq(wbar)/(2*p.Lambda) + ay
}

// DualValue evaluates D(α), recomputing Aᵀα from scratch.
func (p *Problem) DualValue(alpha []float32) float64 {
	wbar := make([]float32, p.M)
	p.A.MulTVec(wbar, alpha)
	return p.DualValueW(alpha, wbar)
}

// DualFromPrimal maps a primal iterate to its induced dual point
// α = (y − Aβ)/N (eq. 6). w must be the consistent shared vector Aβ.
func (p *Problem) DualFromPrimal(w []float32) []float32 {
	alpha := make([]float32, p.N)
	invN := 1 / float32(p.N)
	for i := range alpha {
		alpha[i] = (p.Y[i] - w[i]) * invN
	}
	return alpha
}

// PrimalFromDual maps a dual iterate to its induced primal point
// β = Aᵀα/λ (eq. 5). wbar must be the consistent shared vector Aᵀα.
func (p *Problem) PrimalFromDual(wbar []float32) []float32 {
	beta := make([]float32, p.M)
	invLambda := 1 / float32(p.Lambda)
	for j := range beta {
		beta[j] = wbar[j] * invLambda
	}
	return beta
}

// GapPrimalW returns the duality gap G_P(β) = |P(β) − D((y−Aβ)/N)| given a
// consistent (β, w) pair.
func (p *Problem) GapPrimalW(beta, w []float32) float64 {
	alpha := p.DualFromPrimal(w)
	gap := p.PrimalValueW(beta, w) - p.DualValue(alpha)
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// GapPrimal returns G_P(β), recomputing w = Aβ. This is the honest form used
// to evaluate solvers whose internal shared vector may have drifted (e.g.
// PASSCoDe-Wild): the gap is computed from β alone.
func (p *Problem) GapPrimal(beta []float32) float64 {
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	return p.GapPrimalW(beta, w)
}

// GapDualW returns the duality gap G_D(α) = |P(Aᵀα/λ) − D(α)| given a
// consistent (α, w̄) pair.
func (p *Problem) GapDualW(alpha, wbar []float32) float64 {
	beta := p.PrimalFromDual(wbar)
	gap := p.PrimalValue(beta) - p.DualValueW(alpha, wbar)
	if gap < 0 {
		gap = -gap
	}
	return gap
}

// GapDual returns G_D(α), recomputing w̄ = Aᵀα from α alone.
func (p *Problem) GapDual(alpha []float32) float64 {
	wbar := make([]float32, p.M)
	p.A.MulTVec(wbar, alpha)
	return p.GapDualW(alpha, wbar)
}

// PrimalDelta computes the exact coordinate-minimization step for feature m
// (eq. 2):
//
//	Δβ = (⟨y − w, a_m⟩ − Nλ·β_m) / (‖a_m‖² + Nλ)
//
// given the current shared vector w = Aβ and current weight betaM.
func (p *Problem) PrimalDelta(m int, w []float32, betaM float32) float32 {
	idx, val := p.ACols().Col(m)
	var dp float64
	for k := range idx {
		i := idx[k]
		dp += float64(val[k]) * (float64(p.Y[i]) - float64(w[i]))
	}
	nl := float64(p.N) * p.Lambda
	return float32((dp - nl*float64(betaM)) / (p.colNormsSq[m] + nl))
}

// DualDelta computes the exact coordinate-maximization step for example n
// (eq. 4):
//
//	Δα = (λ·y_n − ⟨w̄, ā_n⟩ − λN·α_n) / (λN + ‖ā_n‖²)
//
// given the current shared vector w̄ = Aᵀα and current weight alphaN.
func (p *Problem) DualDelta(n int, wbar []float32, alphaN float32) float32 {
	idx, val := p.A.Row(n)
	var dp float64
	for k := range idx {
		dp += float64(val[k]) * float64(wbar[idx[k]])
	}
	ln := p.Lambda * float64(p.N)
	return float32((p.Lambda*float64(p.Y[n]) - dp - ln*float64(alphaN)) / (ln + p.rowNormsSq[n]))
}

// OptimalityResiduals measures the violation of the optimality conditions
// (eqs. 5 and 6) for a primal-dual pair: it returns
// ‖β − Aᵀα/λ‖ / (1+‖β‖) and ‖α − (y−Aβ)/N‖ / (1+‖α‖).
// PASSCoDe-Wild converges to a point with non-vanishing residuals; the
// consistent solvers drive both to zero.
func (p *Problem) OptimalityResiduals(beta, alpha []float32) (betaRes, alphaRes float64) {
	wbar := make([]float32, p.M)
	p.A.MulTVec(wbar, alpha)
	betaHat := p.PrimalFromDual(wbar)
	var num, den float64
	for j := range beta {
		d := float64(beta[j]) - float64(betaHat[j])
		num += d * d
		den += float64(beta[j]) * float64(beta[j])
	}
	betaRes = math.Sqrt(num) / (1 + math.Sqrt(den))

	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	alphaHat := p.DualFromPrimal(w)
	num, den = 0, 0
	for i := range alpha {
		d := float64(alpha[i]) - float64(alphaHat[i])
		num += d * d
		den += float64(alpha[i]) * float64(alpha[i])
	}
	alphaRes = math.Sqrt(num) / (1 + math.Sqrt(den))
	return betaRes, alphaRes
}
