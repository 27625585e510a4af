package coords

import "tpascd/internal/perfmodel"

// Loss adapts a View to the engine's Loss interface, so the engine's epoch
// drivers run over a worker's partition exactly as they run over a whole
// problem: the distributed local solvers are engine.NewSolver(NewLoss(view,
// σ′), spec) bound to the worker's vectors (see internal/dist). Like
// ridge.Loss it satisfies engine.Loss structurally.
//
// σ′ ≥ 1 is the CoCoA+ subproblem-safety parameter (Ma et al., the "adding
// vs. averaging" work the paper compares its scaling against). It scales
// the data-curvature term of the step,
//
//	Δ = (gradient terms) / (σ′·‖a_c‖² + Nλ),
//
// and the step's contribution to the working shared vector (σ′·Δ·a_c), so
// that within an epoch later coordinates see the local subproblem's
// σ′/(2N)·‖A_kΔβ_k‖² quadratic term. σ′ = 1 is the exact coordinate step of
// Algorithm 1, bit for bit what ridge.Loss computes; σ′ = K damps the
// local steps enough that aggregated updates can be added (γ = 1) without
// overshooting.
type Loss struct {
	v       *View
	nl      float64 // Nλ
	sigma   float64
	sigma32 float32
}

// NewLoss returns the ridge loss over the view's coordinates with
// subproblem parameter sigma (values below 1 mean 1).
func NewLoss(v *View, sigma float64) *Loss {
	if sigma < 1 {
		sigma = 1
	}
	return &Loss{v: v, nl: float64(v.NGlobal) * v.Lambda, sigma: sigma, sigma32: float32(sigma)}
}

// SetSigma rebuilds the loss in place at subproblem parameter sigma, so a
// driver already built over it takes σ′-damped steps. dist.NewWorker calls
// it with the run's Config.SigmaPrime; it must not be called once epochs
// are running.
func (l *Loss) SetSigma(sigma float64) { *l = *NewLoss(l.v, sigma) }

// Name returns the algorithm tag.
func (l *Loss) Name() string { return "SCD" }

// Form reports the formulation.
func (l *Loss) Form() perfmodel.Form { return l.v.Form }

// NumCoords returns the number of coordinates in the view.
func (l *Loss) NumCoords() int { return l.v.Num }

// SharedLen returns the length of the global shared vector.
func (l *Loss) SharedLen() int { return l.v.SharedLen }

// NNZ returns the stored entries of the view.
func (l *Loss) NNZ() int64 { return l.v.NNZ() }

// CoordNZ returns the non-zero pattern of coordinate c.
func (l *Loss) CoordNZ(c int) ([]int32, []float32) { return l.v.CoordNZ(c) }

// Residual reports the inner-product form: residual Σ val·(y−w) in the
// primal, plain Σ val·w̄ in the dual.
func (l *Loss) Residual() bool { return l.v.Form == perfmodel.Primal }

// Labels returns the shared-vector-indexed labels of the primal form (nil
// for the dual).
func (l *Loss) Labels() []float32 { return l.v.YShared }

// Step computes the σ′-damped closed-form coordinate step (eq. 2 primal,
// eq. 4 dual) from the inner product dp and the current weight.
func (l *Loss) Step(c int, dp float64, cur float32) float32 {
	v := l.v
	if v.Form == perfmodel.Primal {
		return float32((dp - l.nl*float64(cur)) / (l.sigma*v.Norms[c] + l.nl))
	}
	return float32((v.Lambda*float64(v.YCoord[c]) - dp - l.nl*float64(cur)) / (l.nl + l.sigma*v.Norms[c]))
}

// UpdateCoeff returns the shared-vector coefficient σ′·δ.
func (l *Loss) UpdateCoeff(c int, delta float32) float32 { return l.sigma32 * delta }

// Gap panics: a view holds one worker's coordinates, and the duality gap
// is a property of the whole model. Distributed runs evaluate it
// collectively (dist.Worker.Gap).
func (l *Loss) Gap(model []float32) float64 {
	panic("coords: a view has no convergence certificate of its own; use dist.Worker.Gap")
}

// RecomputeShared rebuilds the view's share of the shared vector,
// Σ_c model[c]·a_c, into dst.
func (l *Loss) RecomputeShared(dst, model []float32) { l.v.MulModel(dst, model) }

// DataBytes returns the device-resident footprint of the view's data plus
// the epoch permutation.
func (l *Loss) DataBytes() int64 { return l.v.Bytes() + int64(l.v.Num)*4 }
