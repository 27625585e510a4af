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
// is an engine driver, built by engine.NewSolver over the partition's loss
// and run in place on the model and shared vector the Worker owns and
// aggregates between rounds. Which driver runs is an engine.DriverSpec, so
// the registry's names and aliases are the only vocabulary; which family
// it optimizes is the loss (coords.Loss over a ridge view, which carries
// the CoCoA+ σ′; an svm.Partition), so NewLocal serves them all. What the
// two adapters below add is what only a distributed round needs: staging
// vectors across PCIe for a device-resident driver, and the modeled epoch
// times the Worker max-reduces. A partition has no duality gap of its own,
// so a Local has no Gap; Worker.Gap evaluates it collectively.
type Local interface {
	// Epoch mutates model (length = number of local coordinates) and
	// shared (global shared-vector length) in place. Under a σ′-damped
	// loss shared ends at its start plus σ′ times the local update; the
	// Worker unscales the delta it aggregates.
	Epoch(model, shared []float32)
	// EpochTimes returns the modeled per-epoch cost of this local solver:
	// compute seconds and PCIe staging seconds (zero for CPU solvers).
	EpochTimes() (compute, pcie float64)
	// Loss returns the partition loss the driver runs. NewWorker sizes the
	// rank's vectors from it and rebuilds it at the run's σ′.
	Loss() engine.Loss
}

// hostDriver is what a CPU local calls on an engine driver: epochs on
// borrowed state, a replayable permutation stream, the work counts the
// time model is fed, and the loss it was built over. The host drivers
// (scd, a-scd, wild, syscd) qualify.
type hostDriver interface {
	Bind(model, shared []float32)
	RunEpoch()
	SkipEpochs(n int)
	EpochWork() (nnz, coords int64)
	Loss() engine.Loss
}

// NewLocal builds the local solver of any family's partition: the engine
// driver spec names, over the partition's loss. spec.Name resolves through
// the engine registry (empty = sequential) and unknown names are rejected
// with the registry's vocabulary in the error; tpa-scd (with spec.Device)
// yields a *GPULocal, a host driver a *CPULocal timed by profile.
func NewLocal(loss engine.Loss, spec engine.DriverSpec, profile perfmodel.CPUProfile) (Local, error) {
	// A partition's model cannot rebuild the global shared vector, and the
	// round's aggregation re-bases it anyway.
	spec.RecomputeEvery = 0
	s, err := engine.NewSolver(loss, spec)
	if err != nil {
		return nil, err
	}
	switch d := s.(type) {
	case *engine.GPU:
		return &GPULocal{gpu: d}, nil
	case hostDriver:
		return &CPULocal{driver: d, profile: profile}, nil
	}
	return nil, fmt.Errorf("dist: %s cannot run in place as a local", s.Name())
}

// CPULocal runs an engine host driver as the local solver of a partition.
type CPULocal struct {
	driver  hostDriver
	profile perfmodel.CPUProfile
}

// NewCPULocal builds a CPU local solver over a ridge view for a registered
// engine driver. Drivers that cannot run in place on host vectors (tpa-scd,
// whose local is GPULocal) are rejected.
func NewCPULocal(view *coords.View, spec engine.DriverSpec, profile perfmodel.CPUProfile) (*CPULocal, error) {
	l, err := NewLocal(coords.NewLoss(view, 1), spec, profile)
	if err != nil {
		return nil, err
	}
	if g, ok := l.(*GPULocal); ok {
		g.Close()
		return nil, fmt.Errorf("dist: %s cannot run in place as a CPU local", g.gpu.Name())
	}
	return l.(*CPULocal), nil
}

// SkipEpochs burns n epochs' worth of the driver's permutation randomness,
// aligning a freshly constructed solver with one that already ran n
// epochs. Used by checkpoint resume: a restarted rank skips the epochs it
// already trained, so its continued trajectory draws the same permutation
// sequence an uninterrupted run would have.
func (l *CPULocal) SkipEpochs(n int) { l.driver.SkipEpochs(n) }

// Epoch performs one permuted pass of the driver over the local
// coordinates, in place.
func (l *CPULocal) Epoch(model, shared []float32) {
	l.driver.Bind(model, shared)
	l.driver.RunEpoch()
}

// EpochTimes returns the modeled CPU seconds per local epoch.
func (l *CPULocal) EpochTimes() (float64, float64) {
	nnz, coords := l.driver.EpochWork()
	return l.profile.EpochSeconds(nnz, coords), 0
}

// Loss returns the partition loss the driver runs.
func (l *CPULocal) Loss() engine.Loss { return l.driver.Loss() }

// GPULocal runs the engine's TPA-SCD driver on a simulated GPU as the local
// solver, staging the vectors over PCIe each epoch exactly as the Fig. 7
// architecture describes (dataset resident on the device; shared-vector
// updates copied device→host for the network aggregation, new shared
// vector copied back).
type GPULocal struct {
	gpu *engine.GPU
}

// NewGPULocal places a ridge view on spec.Device and builds the tpa-scd
// driver over it (spec.Name is ignored). It fails if the partition does
// not fit the device's memory.
func NewGPULocal(view *coords.View, spec engine.DriverSpec) (*GPULocal, error) {
	spec.Name = engine.DriverGPU
	l, err := NewLocal(coords.NewLoss(view, 1), spec, perfmodel.CPUProfile{})
	if err != nil {
		return nil, err
	}
	return l.(*GPULocal), nil
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

// Loss returns the partition loss the kernel runs.
func (l *GPULocal) Loss() engine.Loss { return l.gpu.Loss() }

// Close releases the driver's device memory.
func (l *GPULocal) Close() { l.gpu.Close() }
