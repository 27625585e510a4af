package dist

import (
	"fmt"

	"tpascd/internal/coords"
	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
)

// Local is the per-worker local solver plugged into the distributed
// algorithms: one call performs a full permuted pass over the worker's
// coordinates, updating the local model and the (worker-local copy of the)
// global shared vector in place.
//
// The pass itself is not written here. The paper reuses Algorithms 1–2
// unchanged as the CoCoA local solver, and so does this package: a local
// is an engine driver, built by engine.NewSolver over the partition's
// view-backed loss (coords.Loss, which carries the CoCoA+ σ′) and run in
// place on the model and shared vector the Worker owns and aggregates
// between rounds. Which driver runs is an engine.DriverSpec, so the
// registry's names and aliases are the only vocabulary. What the two
// adapters below add is what only a distributed round needs: handing back
// the unscaled shared-vector delta of a σ′-damped pass, staging vectors
// across PCIe for a device-resident driver, and the modeled epoch times
// the Worker max-reduces. A partition has no duality gap of its own, so a
// Local has no Gap; Worker.Gap evaluates it collectively.
type Local interface {
	// Epoch mutates model (length = number of local coordinates) and
	// shared (global shared-vector length) in place.
	Epoch(model, shared []float32)
	// EpochTimes returns the modeled per-epoch cost of this local solver:
	// compute seconds and PCIe staging seconds (zero for CPU solvers).
	EpochTimes() (compute, pcie float64)
	// NumCoords returns the number of local coordinates.
	NumCoords() int
}

// hostDriver is what a CPU local calls on an engine driver: epochs on
// borrowed state, a replayable permutation stream, and the work counts the
// time model is fed. The host drivers (scd, a-scd, wild, syscd) qualify.
type hostDriver interface {
	Bind(model, shared []float32)
	RunEpoch()
	SkipEpochs(n int)
	EpochWork() (nnz, coords int64)
}

// CPULocal runs an engine host driver as the local solver of a partition.
type CPULocal struct {
	driver  hostDriver
	view    *coords.View
	loss    *coords.Loss // the driver's loss; SetSigma replaces its contents
	profile perfmodel.CPUProfile
	sigma   float64 // CoCoA+ subproblem-safety σ′ (1 = exact steps)
	scratch []float32
}

// NewCPULocal builds a CPU local solver for a registered engine driver.
// spec.Name resolves through the engine registry (empty = sequential);
// unknown names are rejected with the registry's vocabulary in the error,
// and so are drivers that cannot run in place on host vectors (tpa-scd,
// whose local is GPULocal).
func NewCPULocal(view *coords.View, spec engine.DriverSpec, profile perfmodel.CPUProfile) (*CPULocal, error) {
	// A partition's model cannot rebuild the global shared vector, and the
	// round's aggregation re-bases it anyway.
	spec.RecomputeEvery = 0
	loss := coords.NewLoss(view, 1)
	s, err := engine.NewSolver(loss, spec)
	if err != nil {
		return nil, err
	}
	driver, ok := s.(hostDriver)
	if !ok {
		if c, ok := s.(interface{ Close() }); ok {
			c.Close()
		}
		return nil, fmt.Errorf("dist: %s cannot run in place as a CPU local", s.Name())
	}
	return &CPULocal{driver: driver, view: view, loss: loss, profile: profile, sigma: 1}, nil
}

// SetSigma sets the CoCoA+ σ′ damping of the local steps (values < 1 are
// clamped to 1). NewWorker calls it with Config.SigmaPrime; it must not be
// called once epochs are running.
func (l *CPULocal) SetSigma(sigma float64) {
	if sigma < 1 {
		sigma = 1
	}
	l.sigma = sigma
	*l.loss = *coords.NewLoss(l.view, sigma)
}

// SkipEpochs burns n epochs' worth of the driver's permutation randomness,
// aligning a freshly constructed solver with one that already ran n
// epochs. Used by checkpoint resume: a restarted rank skips the epochs it
// already trained, so its continued trajectory draws the same permutation
// sequence an uninterrupted run would have.
func (l *CPULocal) SkipEpochs(n int) { l.driver.SkipEpochs(n) }

// Epoch performs one permuted pass of the driver over the local
// coordinates, in place.
//
// With σ′ > 1 the pass solves the CoCoA+ local subproblem: the working
// shared vector carries the local updates scaled by σ′ (the subproblem's
// quadratic term is σ′/(2N)·‖A_kΔβ_k‖²), and the unscaled delta is handed
// back at the end so the Worker aggregates true A_kΔβ_k contributions.
func (l *CPULocal) Epoch(model, shared []float32) {
	damped := l.sigma > 1
	if damped {
		if cap(l.scratch) < len(shared) {
			l.scratch = make([]float32, len(shared))
		}
		copy(l.scratch[:len(shared)], shared)
	}
	l.driver.Bind(model, shared)
	l.driver.RunEpoch()
	if damped {
		// shared currently holds w + σ′·A_kΔβ_k; rescale to w + A_kΔβ_k.
		sigma32 := float32(l.sigma)
		prev := l.scratch[:len(shared)]
		for i := range shared {
			shared[i] = prev[i] + (shared[i]-prev[i])/sigma32
		}
	}
}

// EpochTimes returns the modeled CPU seconds per local epoch.
func (l *CPULocal) EpochTimes() (float64, float64) {
	nnz, coords := l.driver.EpochWork()
	return l.profile.EpochSeconds(nnz, coords), 0
}

// NumCoords returns the number of local coordinates.
func (l *CPULocal) NumCoords() int { return l.view.Num }

// GPULocal runs the engine's TPA-SCD driver on a simulated GPU as the local
// solver, staging the vectors over PCIe each epoch exactly as the Fig. 7
// architecture describes (dataset resident on the device; shared-vector
// updates copied device→host for the network aggregation, new shared
// vector copied back).
type GPULocal struct {
	gpu *engine.GPU
}

// NewGPULocal places the partition on spec.Device and builds the tpa-scd
// driver over it (spec.Name is ignored). It fails if the partition does
// not fit the device's memory.
func NewGPULocal(view *coords.View, spec engine.DriverSpec) (*GPULocal, error) {
	spec.Name = engine.DriverGPU
	s, err := engine.NewSolver(coords.NewLoss(view, 1), spec)
	if err != nil {
		return nil, err
	}
	return &GPULocal{gpu: s.(*engine.GPU)}, nil
}

// Epoch uploads the aggregated shared vector and current model, launches
// one TPA-SCD epoch and downloads the results.
func (l *GPULocal) Epoch(model, shared []float32) {
	l.gpu.SetModel(model)
	l.gpu.UploadShared(shared)
	l.gpu.RunEpoch()
	l.gpu.ReadModel(model)
	l.gpu.DownloadShared(shared)
}

// EpochTimes returns the modeled kernel seconds and the PCIe seconds for
// staging the shared vector on and off the device once each.
func (l *GPULocal) EpochTimes() (float64, float64) {
	bytes := int64(len(l.gpu.SharedVector())) * 4
	pcie := l.gpu.Device().TransferSeconds(bytes, true) * 2
	return l.gpu.EpochSeconds(), pcie
}

// NumCoords returns the number of local coordinates.
func (l *GPULocal) NumCoords() int { return l.gpu.Loss().NumCoords() }

// Close releases the driver's device memory.
func (l *GPULocal) Close() { l.gpu.Close() }
