package dist

import (
	"fmt"
	"math"
	"time"

	"tpascd/internal/cluster"
	"tpascd/internal/coords"
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
	// SigmaPrime is the CoCoA+ subproblem-safety parameter σ′ applied by
	// CPU local solvers (< 1 is treated as 1, the paper's CoCoA-σ=1
	// configuration). σ′ = K with Adding aggregation is the CoCoA+
	// configuration of Ma et al.
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

// Worker executes one rank of the synchronous distributed SCD algorithms.
// All ranks must call RunEpoch collectively, like an MPI program.
type Worker struct {
	comm  cluster.Comm
	local Local
	view  *coords.View
	cfg   Config

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

// NewWorker builds one rank. view must be the same partition the local
// solver was built over.
func NewWorker(comm cluster.Comm, local Local, view *coords.View, cfg Config) (*Worker, error) {
	if local.NumCoords() != view.Num {
		return nil, fmt.Errorf("dist: local solver has %d coordinates, view has %d", local.NumCoords(), view.Num)
	}
	if err := view.Validate(); err != nil {
		return nil, err
	}
	// σ′ is a property of the run, so it is applied here, where every
	// construction path (groups, distworker, the facade) meets the Config.
	if l, ok := local.(*CPULocal); ok {
		l.SetSigma(cfg.SigmaPrime)
	}
	return &Worker{
		comm:       comm,
		local:      local,
		view:       view,
		cfg:        cfg,
		model:      make([]float32, view.Num),
		shared:     make([]float32, view.SharedLen),
		prevModel:  make([]float32, view.Num),
		prevShared: make([]float32, view.SharedLen),
		deltaSum:   make([]float32, view.SharedLen),
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
// by summing each rank's local contribution — for either form that is
// Σ_c model[c]·a_c over the rank's coordinates, Allreduced across ranks.
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
	w.view.MulModel(local, w.model)
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

	// Local deltas (reuse shared as the send buffer via deltaSum scratch).
	delta := w.shared // alias: shared currently holds prevShared + local updates
	for i := range delta {
		delta[i] -= w.prevShared[i]
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
		var err error
		gamma, scalarPayload, err = w.adaptiveGamma()
		if err != nil {
			return bd, err
		}
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
	sharedBytes := int64(w.view.SharedLen) * 4
	bd.Network = w.cfg.Link.ReduceSeconds(K, sharedBytes) + w.cfg.Link.BroadcastSeconds(K, sharedBytes)
	if scalarPayload > 0 {
		bd.Network += w.cfg.Link.ReduceSeconds(K, scalarPayload) + w.cfg.Link.BroadcastSeconds(K, scalarPayload)
	}
	bd.HostComp += w.cfg.hostVectorOpSeconds(w.view.SharedLen, 4)
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

// adaptiveGamma computes the closed-form optimal aggregation parameter.
//
// Primal (eq. 7, with the residual written out; see DESIGN.md):
//
//	γ* = −(⟨w−y, Δw⟩ + Nλ⟨β, Δβ⟩) / (‖Δw‖² + Nλ‖Δβ‖²)
//
// Dual (with the ‖Δα‖² denominator obtained by differentiating D):
//
//	γ̄* = (⟨Δα, y⟩ − N⟨α, Δα⟩ − (1/λ)⟨w̄, Δw̄⟩) / ((1/λ)‖Δw̄‖² + N‖Δα‖²)
//
// The model-side inner products are computed distributedly: workers own
// disjoint coordinates, so the global values are plain sums (the paper's
// observation that makes the extra communication a few scalars per epoch).
func (w *Worker) adaptiveGamma() (float64, int64, error) {
	v := w.view
	N := float64(v.NGlobal)
	lambda := v.Lambda

	// Local model-side scalars.
	var mDot, mNormSq, mY float64
	for j := range w.model {
		d := float64(w.model[j]) - float64(w.prevModel[j])
		mDot += float64(w.prevModel[j]) * d
		mNormSq += d * d
		if v.Form == perfmodel.Dual {
			mY += d * float64(v.YCoord[j])
		}
	}
	sums, err := w.timedAllreduceScalars([]float64{mDot, mNormSq, mY})
	if err != nil {
		return 0, 0, err
	}
	payload := int64(3 * 8)
	mDot, mNormSq, mY = sums[0], sums[1], sums[2]

	// Shared-side scalars from globally identical vectors.
	var sDot, sNormSq float64
	if v.Form == perfmodel.Primal {
		for i := range w.deltaSum {
			d := float64(w.deltaSum[i])
			sDot += (float64(w.prevShared[i]) - float64(v.YShared[i])) * d
			sNormSq += d * d
		}
		num := -(sDot + N*lambda*mDot)
		den := sNormSq + N*lambda*mNormSq
		if den <= 0 || math.IsNaN(num/den) {
			return 1, payload, nil
		}
		return num / den, payload, nil
	}
	for i := range w.deltaSum {
		d := float64(w.deltaSum[i])
		sDot += float64(w.prevShared[i]) * d
		sNormSq += d * d
	}
	num := mY - N*mDot - sDot/lambda
	den := sNormSq/lambda + N*mNormSq
	if den <= 0 || math.IsNaN(num/den) {
		return 1, payload, nil
	}
	return num / den, payload, nil
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
	gap, err := w.computeGap()
	if err == nil {
		w.cfg.Trace.Emit("dist.gap", start, time.Since(start),
			obs.F("rank", float64(w.comm.Rank())),
			obs.F("epoch", float64(w.epoch)),
			obs.F("gap", gap),
			obs.F("comm_s", w.commDur.Seconds()),
		)
	}
	return gap, err
}

func (w *Worker) computeGap() (float64, error) {
	v := w.view
	N := float64(v.NGlobal)
	lambda := v.Lambda
	if v.Form == perfmodel.Primal {
		// P(β) = ‖w−y‖²/(2N) + λ/2·Σ_k‖β_k‖²
		// α̂ = (y−w)/N (global), D(α̂) needs ‖Aᵀα̂‖² = Σ_k Σ_{j∈S_k}⟨a_j,α̂⟩².
		var betaSq float64
		for _, b := range w.model {
			betaSq += float64(b) * float64(b)
		}
		alphaHat := make([]float32, v.SharedLen)
		for i := range alphaHat {
			alphaHat[i] = (v.YShared[i] - w.shared[i]) / float32(N)
		}
		var atASq float64
		for c := 0; c < v.Num; c++ {
			idx, val := v.CoordNZ(c)
			var dp float64
			for k := range idx {
				dp += float64(val[k]) * float64(alphaHat[idx[k]])
			}
			atASq += dp * dp
		}
		sums, err := w.timedAllreduceScalars([]float64{betaSq, atASq})
		if err != nil {
			return 0, err
		}
		betaSq, atASq = sums[0], sums[1]
		var residSq, alphaSq, alphaY float64
		for i := range w.shared {
			r := float64(w.shared[i]) - float64(v.YShared[i])
			residSq += r * r
			a := float64(alphaHat[i])
			alphaSq += a * a
			alphaY += a * float64(v.YShared[i])
		}
		p := residSq/(2*N) + lambda/2*betaSq
		d := -N/2*alphaSq - atASq/(2*lambda) + alphaY
		return math.Abs(p - d), nil
	}
	// Dual: D(α) = −N/2·Σ‖α_k‖² − ‖w̄‖²/(2λ) + Σ⟨α_k,y_k⟩ ;
	// β̂ = w̄/λ (global), P(β̂) needs Σ_k Σ_{i∈rows_k}(⟨ā_i,β̂⟩−y_i)².
	var alphaSq, alphaY, residSq, betaHatSq float64
	betaHat := make([]float32, v.SharedLen)
	invLambda := 1 / float32(lambda)
	for j := range betaHat {
		betaHat[j] = w.shared[j] * invLambda
		betaHatSq += float64(betaHat[j]) * float64(betaHat[j])
	}
	for c := 0; c < v.Num; c++ {
		a := float64(w.model[c])
		alphaSq += a * a
		alphaY += a * float64(v.YCoord[c])
		idx, val := v.CoordNZ(c)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(betaHat[idx[k]])
		}
		r := dp - float64(v.YCoord[c])
		residSq += r * r
	}
	sums, err := w.timedAllreduceScalars([]float64{alphaSq, alphaY, residSq})
	if err != nil {
		return 0, err
	}
	alphaSq, alphaY, residSq = sums[0], sums[1], sums[2]
	var wbarSq float64
	for _, x := range w.shared {
		wbarSq += float64(x) * float64(x)
	}
	d := -N/2*alphaSq - wbarSq/(2*lambda) + alphaY
	p := residSq/(2*N) + lambda/2*betaHatSq
	return math.Abs(p - d), nil
}
