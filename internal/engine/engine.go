// Package engine is the shared stochastic-coordinate-descent core that
// every solver family in this repository runs on. The paper's skeleton —
// a permuted pass over coordinates, an exact per-coordinate step, and an
// incrementally maintained shared vector — is loss-agnostic: ridge
// regression (primal and dual), elastic net, hinge-loss SVM and logistic
// regression differ only in how the inner product is turned into a step
// and how the convergence certificate is computed. The engine owns the
// epoch drivers (Sequential, the asynchronous atomic/wild variants, and
// the TPA-SCD kernel scaffold on the gpusim device), the permutation
// streams, shared-vector maintenance and recomputation, per-epoch work
// counters, and the instrumentation hooks that feed internal/trace; the
// families supply a Loss. Every coordinate-update loop in the repository
// lives here: the drivers train state they own or, bound in place (Bind,
// the GPU's staging calls), the model and shared vector of a distributed
// worker, whose partition reaches them as a coords.Loss (see internal/dist).
//
// The same layering appears in SySCD (Ioannou et al., NeurIPS 2019) and
// PASSCoDe (Hsieh et al., ICML 2015): the asynchronous and backend
// machinery is system-aware and loss-independent, so implementing a new
// loss immediately yields sequential, async-atomic, wild and simulated-GPU
// solvers with perfmodel timing and trace instrumentation.
package engine

import (
	"tpascd/internal/atomicf"
	"tpascd/internal/perfmodel"
)

// Loss is the pluggable problem-specific part of a coordinate-descent
// solver: the mapping from inner products to exact coordinate steps
// (including any prox operator or box constraint), the conjugate terms
// behind the convergence certificate, and the sparse coordinate access.
//
// A Loss must be immutable after construction and safe for concurrent use:
// the async and GPU drivers call it from many goroutines.
type Loss interface {
	// Name returns the short algorithm tag used to label solvers built on
	// this loss ("SCD", "SDCA", ...).
	Name() string
	// Form reports which formulation the coordinates iterate: features
	// (Primal) or examples (Dual).
	Form() perfmodel.Form
	// NumCoords returns the number of coordinates of one epoch.
	NumCoords() int
	// SharedLen returns the length of the maintained shared vector.
	SharedLen() int
	// NNZ returns the number of stored matrix entries, the per-epoch work
	// fed to perfmodel profiles.
	NNZ() int64
	// CoordNZ returns the non-zero pattern of coordinate c: shared-vector
	// indices and the matching data values.
	CoordNZ(c int) ([]int32, []float32)
	// Residual reports how the per-coordinate inner product reads the
	// shared vector: true means the residual form Σ val·(y_i − w_i) of the
	// primal regression losses, false the plain form Σ val·w_i of the dual
	// losses.
	Residual() bool
	// Labels returns the shared-vector-indexed labels used by the residual
	// form; nil for plain-form losses.
	Labels() []float32
	// Step turns the inner product dp and the current weight into the
	// exact coordinate step (the new weight is cur+Step). Prox operators
	// and box constraints are applied here; a zero return skips the
	// shared-vector update.
	Step(c int, dp float64, cur float32) float32
	// UpdateCoeff converts a model step into the coefficient multiplied
	// with the coordinate's data values when updating the shared vector
	// (delta itself for the regression losses; scaled by label and 1/(λN)
	// for the dual classification losses).
	UpdateCoeff(c int, delta float32) float32
	// Gap returns the convergence certificate computed honestly from the
	// model alone — the duality gap, or the KKT residual for losses whose
	// Fenchel gap is inconvenient (elastic net). Implementations must
	// recompute the shared vector from scratch so drift in the maintained
	// copy cannot mask a violated optimality condition.
	Gap(model []float32) float64
	// RecomputeShared rebuilds the shared vector from the model into dst
	// (len(dst) == SharedLen()), overwriting its previous contents.
	RecomputeShared(dst, model []float32)
	// DataBytes returns the approximate device-resident footprint of the
	// immutable problem data (matrix, norms, labels, permutation). The GPU
	// driver reserves this much device memory up front — the constraint
	// that forces multi-GPU distribution for the large datasets of
	// Section V of the paper.
	DataBytes() int64
}

// Solver is one configured coordinate-descent solver bound to a problem.
// Implementations are not safe for concurrent use by multiple callers, but
// internally they may use many goroutines. This interface was promoted
// from the old per-family packages and is implemented by every driver in
// this package, by the SGD baseline, and re-exported by the root facade.
type Solver interface {
	// RunEpoch performs one epoch: a full permuted pass over the
	// coordinates (features in the primal, examples in the dual).
	RunEpoch()
	// Model returns the current model weights (β for primal forms, α for
	// dual). The returned slice aliases solver state.
	Model() []float32
	// SharedVector returns the maintained shared vector (w = Aβ primal,
	// w̄ = Aᵀα dual). It may be inconsistent for the wild solver, and nil
	// for solvers that maintain none.
	SharedVector() []float32
	// Gap returns the convergence certificate computed honestly from the
	// model alone (see Loss.Gap).
	Gap() float64
	// Form reports which formulation the solver optimizes.
	Form() perfmodel.Form
	// Name returns a short human-readable identifier.
	Name() string
	// EpochWork returns the work counted per epoch: total non-zeros
	// touched and coordinate updates performed. Feed these to a perfmodel
	// profile to obtain simulated time.
	EpochWork() (nnz, coords int64)
}

// dotSlice computes the loss's per-coordinate inner product in float64 with
// plain shared-vector reads. residual and labels are hoisted
// Loss.Residual()/Loss.Labels(); the element loads are direct (no closure)
// because this is the hottest loop of the sequential driver and indirection
// per non-zero costs tens of percent.
func dotSlice(l Loss, c int, shared []float32, residual bool, labels []float32) float64 {
	idx, val := l.CoordNZ(c)
	var dp float64
	if residual {
		for k := range idx {
			i := idx[k]
			dp += float64(val[k]) * (float64(labels[i]) - float64(shared[i]))
		}
		return dp
	}
	for k := range idx {
		dp += float64(val[k]) * float64(shared[idx[k]])
	}
	return dp
}

// dotAtomic is dotSlice with atomic shared-vector loads, for the async
// drivers whose readers race concurrent writers.
func dotAtomic(l Loss, c int, shared []float32, residual bool, labels []float32) float64 {
	idx, val := l.CoordNZ(c)
	var dp float64
	if residual {
		for k := range idx {
			i := idx[k]
			dp += float64(val[k]) * (float64(labels[i]) - float64(atomicf.LoadFloat32(&shared[i])))
		}
		return dp
	}
	for k := range idx {
		dp += float64(val[k]) * float64(atomicf.LoadFloat32(&shared[idx[k]]))
	}
	return dp
}
