package dist

import (
	"fmt"
	"math"
	"time"

	"tpascd/internal/cluster"
	"tpascd/internal/obs"
	"tpascd/internal/perfmodel"
)

// Aggregation selects how the master combines the workers' shared-vector
// updates.
type Aggregation int

// The aggregation strategies compared in Figs. 4-6 (Averaging/Adaptive)
// plus the "adding" variant of Ma et al. the paper's Section IV-B cites
// as prior work ("existing work has considered both averaging and adding
// of updates").
const (
	// Averaging applies γ = 1/K (Algorithm 3).
	Averaging Aggregation = iota
	// Adaptive computes the closed-form optimal γ each epoch
	// (Algorithm 4, the paper's contribution).
	Adaptive
	// Adding applies γ = 1 (CoCoA+-style adding); aggressive, and can
	// overshoot when worker partitions are correlated.
	Adding
)

// String names the strategy.
func (a Aggregation) String() string {
	switch a {
	case Adaptive:
		return "adaptive"
	case Adding:
		return "adding"
	default:
		return "averaging"
	}
}

// Config parameterizes a distributed worker.
type Config struct {
	// Aggregation selects averaging (Algorithm 3) or adaptive
	// (Algorithm 4) combination of updates.
	Aggregation Aggregation
	// Link models the network between workers and master for the
	// simulated-time accounting (it does not affect convergence).
	Link perfmodel.Link
	// PCIe, when non-zero, overrides the pinned PCIe link of the workers'
	// devices (used by the experiment harness's scale transformation).
	PCIe perfmodel.Link
	// HostFlopsPerSec, when non-zero, overrides the host vector-arithmetic
	// rate used for the HostComp part of the time breakdown.
	HostFlopsPerSec float64
	// SigmaPrime is the CoCoA+ subproblem-safety parameter σ′ of the local
	// solvers (< 1 is treated as 1, the paper's CoCoA-σ=1 configuration).
	// σ′ = K with Adding aggregation is the CoCoA+ configuration of Ma et
	// al.
	SigmaPrime float64
	// WrapComm, when non-nil, wraps each rank's communicator before its
	// worker is built — the seam for transport middleware, above all
	// fault injection (cluster.Chaos) in the robustness tests. Honoured
	// by the in-process Group constructors.
	WrapComm func(cluster.Comm) cluster.Comm
	// Trace receives one "dist.round" span per synchronous round (epoch,
	// aggregation γ, modeled seconds, wall-clock duration plus its
	// compute_s/comm_s split) and one "dist.gap" span per collective gap
	// evaluation. nil disables tracing.
	Trace *obs.Tracer
}

// hostVectorOpSeconds applies the configured host rate.
func (c Config) hostVectorOpSeconds(elements, passes int) float64 {
	rate := c.HostFlopsPerSec
	if rate <= 0 {
		rate = perfmodel.HostCPUFlopsPerSec
	}
	return float64(elements) * float64(passes) / rate
}

// Family is the loss-specific algebra of a CoCoA round, implemented by a
// loss family's partition type: *coords.View for ridge regression (either
// form), *svm.Partition for the hinge dual. The round itself is the
// Worker's and the same for every family; what differs is the closed-form
// γ* of the family's objective and its duality gap. Both are collective,
// and both are split here at their one scalar Allreduce: the Terms method
// returns what this rank contributes (ranks own disjoint coordinates, so
// global values are plain sums), the FromSums method finishes from the sums
// and the shared-side vectors every rank holds identically. A minimum
// across ranks (the SVM box bound) travels in per-rank slots of the summed
// vector, so no transport needs another collective.
type Family interface {
	// Dims returns the partition's coordinate count and the length of the
	// global shared vector.
	Dims() (coords, shared int)
	// Validate checks the partition's structural invariants.
	Validate() error
	// GammaTerms returns this rank's summands for the optimal aggregation
	// parameter, from the local model before and after the local epoch.
	GammaTerms(rank, size int, model, prevModel []float32) []float64
	// GammaFromSums returns γ* from the summed terms, the shared vector
	// before the round and the summed shared-vector delta.
	GammaFromSums(sums []float64, prevShared, deltaSum []float32) float64
	// GapTerms returns this rank's summands of the duality gap.
	GapTerms(model, shared []float32) []float64
	// GapFromSums returns the duality gap from the summed terms and the
	// shared vector.
	GapFromSums(sums []float64, shared []float32) float64
}

// Worker executes one rank of the synchronous distributed SCD algorithms.
// All ranks must call RunEpoch collectively, like an MPI program.
type Worker struct {
	comm   cluster.Comm
	local  Local
	family Family
	cfg    Config
	sigma  float32 // CoCoA+ σ′ the local's working shared vector is scaled by

	model  []float32 // local coordinates
	shared []float32 // global shared vector (consistent across ranks)

	prevModel  []float32
	prevShared []float32
	deltaSum   []float32

	gamma float64
	epoch int // completed synchronous rounds

	// commDur accumulates the wall-clock time this rank spent blocked in
	// collectives during the current round (or Gap call); reset at the
	// start of each. It feeds the compute-vs-communication breakdown in
	// the emitted spans, which obsreport turns into per-rank shares.
	commDur time.Duration
}

// NewWorker builds one rank. family must be the partition the local solver
// was built over. σ′ is a property of the run, so it is applied here, where
// every construction path (groups, distworker, the facade) meets the
// Config: the local's loss is rebuilt for the σ′-damped subproblem, or the
// run rejected if the family has no damped step.
func NewWorker(comm cluster.Comm, local Local, family Family, cfg Config) (*Worker, error) {
	loss := local.Loss()
	num, sharedLen := family.Dims()
	if loss.NumCoords() != num || loss.SharedLen() != sharedLen {
		return nil, fmt.Errorf("dist: local solver is %d coordinates × %d shared, partition %d × %d",
			loss.NumCoords(), loss.SharedLen(), num, sharedLen)
	}
	if err := family.Validate(); err != nil {
		return nil, err
	}
	sigma := math.Max(cfg.SigmaPrime, 1)
	if d, ok := loss.(interface{ SetSigma(float64) }); ok {
		d.SetSigma(sigma)
	} else if sigma > 1 {
		return nil, fmt.Errorf("dist: the %s loss has no σ′-damped step (SigmaPrime %g)", loss.Name(), sigma)
	}
	return &Worker{
		comm:       comm,
		local:      local,
		family:     family,
		cfg:        cfg,
		sigma:      float32(sigma),
		model:      make([]float32, num),
		shared:     make([]float32, sharedLen),
		prevModel:  make([]float32, num),
		prevShared: make([]float32, sharedLen),
		deltaSum:   make([]float32, sharedLen),
		gamma:      1,
	}, nil
}

// Model returns the local model weights (aliases worker state).
func (w *Worker) Model() []float32 { return w.model }

// Shared returns the global shared vector (aliases worker state).
func (w *Worker) Shared() []float32 { return w.shared }

// Gamma returns the aggregation parameter applied in the last epoch.
func (w *Worker) Gamma() float64 { return w.gamma }

// Epoch returns the number of synchronous rounds completed (resumed
// rounds included).
func (w *Worker) Epoch() int { return w.epoch }

// Snapshot returns a copy of the rank-local model and the completed epoch
// count — exactly the state a checkpoint must persist. The shared vector
// is deliberately not captured: ResumeFrom recomputes it from the models,
// which keeps checkpoints small and repairs any accumulated float drift
// (the same repair path engine.Async exposes as RecomputeShared).
func (w *Worker) Snapshot() ([]float32, int) {
	m := make([]float32, len(w.model))
	copy(m, w.model)
	return m, w.epoch
}

// ResumeFrom restores a checkpointed model and rejoins the group at the
// given epoch. It is collective: every rank must call it with its own
// partition's model and the same epoch before any RunEpoch. Ranks first
// agree they are resuming from the same round (mismatched checkpoints are
// an error, not silent divergence), then rebuild the global shared vector
// by summing each rank's local contribution — what the partition's loss
// rebuilds from the rank's coordinates alone — Allreduced across ranks.
func (w *Worker) ResumeFrom(model []float32, epoch int) error {
	if len(model) != len(w.model) {
		return fmt.Errorf("dist: resume model has %d coordinates, partition has %d", len(model), len(w.model))
	}
	if epoch < 0 {
		return fmt.Errorf("dist: resume epoch %d", epoch)
	}
	K := w.comm.Size()
	slots := make([]float64, K)
	slots[w.comm.Rank()] = float64(epoch)
	summed, err := w.comm.AllreduceScalars(slots)
	if err != nil {
		return err
	}
	for r := 0; r < K; r++ {
		if int(summed[r]) != epoch {
			return fmt.Errorf("dist: rank %d resumes from epoch %d but rank %d from epoch %d",
				w.comm.Rank(), epoch, r, int(summed[r]))
		}
	}
	copy(w.model, model)
	local := make([]float32, len(w.shared))
	w.local.Loss().RecomputeShared(local, w.model)
	if err := w.comm.Allreduce(local, w.shared); err != nil {
		return err
	}
	w.epoch = epoch
	return nil
}

// RunEpoch executes one synchronous round: local epoch, reduction of
// shared-vector deltas, aggregation-parameter computation, application and
// re-broadcast. It returns the modeled time breakdown of the round.
func (w *Worker) RunEpoch() (perfmodel.Breakdown, error) {
	var bd perfmodel.Breakdown
	start := time.Now()
	w.commDur = 0
	copy(w.prevModel, w.model)
	copy(w.prevShared, w.shared)

	// Local optimization pass.
	computeStart := time.Now()
	w.local.Epoch(w.model, w.shared)
	computeDur := time.Since(computeStart)

	// Local deltas (shared doubles as the send buffer). A σ′-damped pass
	// leaves prevShared + σ′·A_kΔβ_k behind; the aggregation sums the true
	// A_kΔβ_k contributions. At σ′ = 1 the division is exact.
	delta := w.shared
	for i := range delta {
		delta[i] = (delta[i] - w.prevShared[i]) / w.sigma
	}

	// Reduce + broadcast so every rank holds the summed delta.
	K := w.comm.Size()
	commStart := time.Now()
	if err := w.comm.Reduce(delta, w.deltaSum, 0); err != nil {
		return bd, err
	}
	if err := w.comm.Broadcast(w.deltaSum, 0); err != nil {
		return bd, err
	}
	w.commDur += time.Since(commStart)

	// Aggregation parameter.
	gamma := 1.0 / float64(K)
	var scalarPayload int64
	switch w.cfg.Aggregation {
	case Adaptive:
		// The paper's "few extra scalars per epoch": the ranks' summands
		// are summed, and every rank finishes γ* from the sums and the
		// shared-side vectors it already holds.
		terms := w.family.GammaTerms(w.comm.Rank(), K, w.model, w.prevModel)
		sums, err := w.timedAllreduceScalars(terms)
		if err != nil {
			return bd, err
		}
		gamma = w.family.GammaFromSums(sums, w.prevShared, w.deltaSum)
		scalarPayload = int64(len(terms)) * 8
	case Adding:
		gamma = 1
	}
	w.gamma = gamma

	// Apply: w^(t) = w^(t-1) + γ·Δw ;  β_k = β_k^(t-1) + γ·Δβ_k.
	g32 := float32(gamma)
	for i := range w.shared {
		w.shared[i] = w.prevShared[i] + g32*w.deltaSum[i]
	}
	for j := range w.model {
		w.model[j] = w.prevModel[j] + g32*(w.model[j]-w.prevModel[j])
	}

	// Modeled time: synchronous round = max worker compute (+PCIe), plus
	// master-routed network collectives, plus host-side vector arithmetic.
	compute, pcie := w.local.EpochTimes()
	maxes, err := w.allreduceMax([]float64{compute, pcie})
	if err != nil {
		return bd, err
	}
	if maxes[1] > 0 {
		bd.GPUComp = maxes[0] // device local solver
	} else {
		bd.HostComp = maxes[0] // CPU local solver
	}
	bd.PCIe = maxes[1]
	sharedBytes := int64(len(w.shared)) * 4
	bd.Network = w.cfg.Link.ReduceSeconds(K, sharedBytes) + w.cfg.Link.BroadcastSeconds(K, sharedBytes)
	if scalarPayload > 0 {
		bd.Network += w.cfg.Link.ReduceSeconds(K, scalarPayload) + w.cfg.Link.BroadcastSeconds(K, scalarPayload)
	}
	bd.HostComp += w.cfg.hostVectorOpSeconds(len(w.shared), 4)
	w.epoch++
	w.cfg.Trace.Emit("dist.round", start, time.Since(start),
		obs.F("rank", float64(w.comm.Rank())),
		obs.F("epoch", float64(w.epoch)),
		obs.F("gamma", w.gamma),
		obs.F("seconds", bd.Total()),
		obs.F("compute_s", computeDur.Seconds()),
		obs.F("comm_s", w.commDur.Seconds()),
	)
	return bd, nil
}

// timedAllreduceScalars runs the collective and charges its wall-clock
// duration to the current round's communication share.
func (w *Worker) timedAllreduceScalars(vals []float64) ([]float64, error) {
	t0 := time.Now()
	out, err := w.comm.AllreduceScalars(vals)
	w.commDur += time.Since(t0)
	return out, err
}

// allreduceMax returns the element-wise maximum of vals across ranks,
// implemented with per-rank slots over the sum-Allreduce (group sizes here
// are ≤ 16, so the payload stays tiny).
func (w *Worker) allreduceMax(vals []float64) ([]float64, error) {
	K := w.comm.Size()
	r := w.comm.Rank()
	slots := make([]float64, len(vals)*K)
	for i, v := range vals {
		slots[i*K+r] = v
	}
	summed, err := w.timedAllreduceScalars(slots)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i := range vals {
		m := math.Inf(-1)
		for rr := 0; rr < K; rr++ {
			if summed[i*K+rr] > m {
				m = summed[i*K+rr]
			}
		}
		out[i] = m
	}
	return out, nil
}

// Gap computes the global duality gap collectively: every rank contributes
// the pieces it owns (disjoint model coordinates and matrix slices) through
// one scalar Allreduce, and all ranks return the same value. This mirrors
// how a real distributed implementation evaluates convergence without
// materializing the model on one node.
func (w *Worker) Gap() (float64, error) {
	start := time.Now()
	w.commDur = 0
	sums, err := w.timedAllreduceScalars(w.family.GapTerms(w.model, w.shared))
	if err != nil {
		return 0, err
	}
	gap := w.family.GapFromSums(sums, w.shared)
	w.cfg.Trace.Emit("dist.gap", start, time.Since(start),
		obs.F("rank", float64(w.comm.Rank())),
		obs.F("epoch", float64(w.epoch)),
		obs.F("gap", gap),
		obs.F("comm_s", w.commDur.Seconds()),
	)
	return gap, nil
}
