package engine

import (
	"fmt"

	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
)

// Sequential implements Algorithm 1 of the paper for any Loss: one thread,
// exact coordinate minimization over a fresh random permutation each epoch,
// with an incrementally maintained shared vector.
type Sequential struct {
	loss   Loss
	model  []float32
	shared []float32
	rng    *rng.Xoshiro256
	perm   []int
}

// NewSequential returns a sequential coordinate-descent solver for the loss.
func NewSequential(l Loss, seed uint64) *Sequential {
	return &Sequential{
		loss:   l,
		model:  make([]float32, l.NumCoords()),
		shared: make([]float32, l.SharedLen()),
		rng:    rng.New(seed),
	}
}

// RunEpoch performs one permuted pass over all coordinates.
func (s *Sequential) RunEpoch() {
	s.perm = s.rng.Perm(s.loss.NumCoords(), s.perm)
	sequentialPass(s.loss, s.perm, s.model, s.shared)
}

// sequentialPass is the body of Algorithm 1: visit the coordinates in perm
// order, take the loss's exact step against the current shared vector and
// fold it back in. The sequential driver and the syscd driver at one
// thread both run exactly this.
func sequentialPass(l Loss, perm []int, model, shared []float32) {
	residual, labels := l.Residual(), l.Labels()
	for _, c := range perm {
		d := l.Step(c, dotSlice(l, c, shared, residual, labels), model[c])
		if d == 0 {
			continue
		}
		model[c] += d
		coeff := l.UpdateCoeff(c, d)
		idx, val := l.CoordNZ(c)
		for k := range idx {
			shared[idx[k]] += val[k] * coeff
		}
	}
}

// Bind points the solver at caller-owned state: from now on epochs read
// and update model (length NumCoords) and shared (length SharedLen) in
// place. This is how a distributed worker runs the driver as its local
// solver over vectors it aggregates between rounds (see internal/dist).
func (s *Sequential) Bind(model, shared []float32) { s.model, s.shared = model, shared }

// SkipEpochs burns n epochs' worth of permutation randomness, aligning a
// freshly constructed solver with one that already ran n epochs —
// checkpoint resume continues with the permutations an uninterrupted run
// would have drawn.
func (s *Sequential) SkipEpochs(n int) { s.perm = skipPerms(s.rng, s.perm, s.loss.NumCoords(), n) }

// skipPerms draws and discards n permutations of the given size.
func skipPerms(r *rng.Xoshiro256, buf []int, size, n int) []int {
	for ; n > 0; n-- {
		buf = r.Perm(size, buf)
	}
	return buf
}

// SetModel overwrites the model (for warm starts, e.g. regularization
// paths) and recomputes the shared vector to match.
func (s *Sequential) SetModel(m []float32) {
	copy(s.model, m)
	s.loss.RecomputeShared(s.shared, s.model)
}

// Loss returns the loss the solver optimizes.
func (s *Sequential) Loss() Loss { return s.loss }

// Model returns the current weights.
func (s *Sequential) Model() []float32 { return s.model }

// SharedVector returns the maintained shared vector.
func (s *Sequential) SharedVector() []float32 { return s.shared }

// Gap returns the honest convergence certificate.
func (s *Sequential) Gap() float64 { return s.loss.Gap(s.model) }

// Form reports the formulation.
func (s *Sequential) Form() perfmodel.Form { return s.loss.Form() }

// Name identifies the solver.
func (s *Sequential) Name() string { return fmt.Sprintf("%s (1 thread)", s.loss.Name()) }

// EpochWork returns per-epoch work counts.
func (s *Sequential) EpochWork() (int64, int64) { return s.loss.NNZ(), int64(s.loss.NumCoords()) }
