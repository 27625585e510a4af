package engine

import (
	"fmt"
	"runtime"
	"sync"

	"tpascd/internal/atomicf"
	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
)

// wildYieldMask controls how often a wild writer yields the processor in
// the middle of its read-modify-write window (once per ~1024 stores). On a
// machine with many cores the hardware interleaves the racy windows of
// PASSCoDe-Wild by itself; with few cores Go's cooperative scheduler would
// otherwise serialize them and the algorithm would degenerate into exact
// sequential behaviour, hiding the lost-update convergence floor the paper
// demonstrates. The yield emulates preemptive hardware thread interleaving
// at a low, fixed rate regardless of GOMAXPROCS.
const wildYieldMask = 1023

// Async is the shared implementation of the two multi-threaded solvers:
//
//   - A-SCD (Tran et al.): the inner loop over shuffled coordinates is
//     parallelized across threads whose shared-vector updates use atomic
//     float additions, so no update is ever lost;
//   - PASSCoDe-Wild (Hsieh et al.): the same parallel structure but with
//     non-atomic read-modify-write shared-vector updates, so concurrent
//     updates can overwrite each other. The algorithm is faster per epoch
//     but converges to a point that violates the optimality conditions —
//     its convergence certificate plateaus instead of reaching zero.
//
// Each epoch the permutation is split into contiguous chunks, one per
// thread; threads update disjoint model coordinates but race on the shared
// vector. The goroutines race on a real shared vector; the convergence
// behaviour in the experiments is emergent, not simulated. (Individual
// loads/stores are implemented with atomic operations even in the "wild"
// solver, so the lost-update races it is defined by are exercised without
// undefined behaviour under the Go memory model; whole read-modify-write
// sequences are still unsynchronized.)
type Async struct {
	loss    Loss
	model   []float32
	shared  []float32
	rng     *rng.Xoshiro256
	perm    []int
	threads int
	wild    bool

	// recomputeEvery, when positive, rebuilds the shared vector from the
	// model every that many epochs — the drift-repair scheme proposed for
	// A-SCD by Tran et al. (reference [13]: "a scheme for occasionally
	// re-computing the shared vector").
	recomputeEvery int
	epochsRun      int
}

// SetRecomputeEvery enables periodic shared-vector recomputation every n
// epochs (n <= 0 disables it, the default).
func (s *Async) SetRecomputeEvery(n int) { s.recomputeEvery = n }

// NewAtomic returns an async solver with atomic (lossless) shared-vector
// updates: A-SCD for ridge, and the same scheme for any other loss.
func NewAtomic(l Loss, threads int, seed uint64) *Async {
	return newAsync(l, threads, seed, false)
}

// NewWild returns a PASSCoDe-Wild solver: threads goroutines, racy
// read-modify-write shared-vector updates in which concurrent updates may
// be lost.
func NewWild(l Loss, threads int, seed uint64) *Async {
	return newAsync(l, threads, seed, true)
}

func newAsync(l Loss, threads int, seed uint64, wild bool) *Async {
	if threads < 1 {
		panic("engine: threads must be >= 1")
	}
	return &Async{
		loss:    l,
		model:   make([]float32, l.NumCoords()),
		shared:  make([]float32, l.SharedLen()),
		rng:     rng.New(seed),
		threads: threads,
		wild:    wild,
	}
}

// RunEpoch performs one permuted pass over all coordinates, parallelized
// across the configured number of goroutines.
func (s *Async) RunEpoch() {
	l := s.loss
	numCoords := l.NumCoords()
	s.perm = s.rng.Perm(numCoords, s.perm)
	residual, labels := l.Residual(), l.Labels()
	var wg sync.WaitGroup
	chunk := (numCoords + s.threads - 1) / s.threads
	for t := 0; t < s.threads; t++ {
		lo := t * chunk
		if lo >= numCoords {
			break
		}
		hi := lo + chunk
		if hi > numCoords {
			hi = numCoords
		}
		wg.Add(1)
		go func(coords []int) {
			defer wg.Done()
			var stores uint
			for _, c := range coords {
				d := l.Step(c, dotAtomic(l, c, s.shared, residual, labels), s.model[c])
				if d == 0 {
					continue
				}
				s.model[c] += d
				coeff := l.UpdateCoeff(c, d)
				idx, val := l.CoordNZ(c)
				if s.wild {
					// Lost-update semantics: the load and store are
					// individually atomic but the increment is not, and
					// the occasional yield keeps the racy window open
					// even on few-core machines (see wildYieldMask).
					for k := range idx {
						cur := atomicf.LoadFloat32(&s.shared[idx[k]])
						if stores&wildYieldMask == 0 {
							runtime.Gosched()
						}
						stores++
						atomicf.StoreFloat32(&s.shared[idx[k]], cur+val[k]*coeff)
					}
				} else {
					for k := range idx {
						atomicf.AddFloat32(&s.shared[idx[k]], val[k]*coeff)
					}
				}
			}
		}(s.perm[lo:hi])
	}
	wg.Wait()
	s.epochsRun++
	if s.recomputeEvery > 0 && s.epochsRun%s.recomputeEvery == 0 {
		s.RecomputeShared()
	}
}

// Bind points the solver at caller-owned state (see Sequential.Bind).
func (s *Async) Bind(model, shared []float32) { s.model, s.shared = model, shared }

// SkipEpochs burns n epochs' worth of permutation randomness (see
// Sequential.SkipEpochs).
func (s *Async) SkipEpochs(n int) { s.perm = skipPerms(s.rng, s.perm, s.loss.NumCoords(), n) }

// RecomputeShared rebuilds the shared vector from the model, the repair
// step proposed for A-SCD when drift accumulates.
func (s *Async) RecomputeShared() {
	s.loss.RecomputeShared(s.shared, s.model)
}

// SharedDrift returns ‖shared − recomputed‖² / (1 + ‖recomputed‖²), a
// measure of how inconsistent the maintained shared vector has become with
// the model. Zero for lossless solvers (up to float accumulation order).
func (s *Async) SharedDrift() float64 {
	fresh := make([]float32, s.loss.SharedLen())
	s.loss.RecomputeShared(fresh, s.model)
	var num, den float64
	for i := range fresh {
		d := float64(s.shared[i]) - float64(fresh[i])
		num += d * d
		den += float64(fresh[i]) * float64(fresh[i])
	}
	return num / (1 + den)
}

// Loss returns the loss the solver optimizes.
func (s *Async) Loss() Loss { return s.loss }

// Model returns the current weights.
func (s *Async) Model() []float32 { return s.model }

// SharedVector returns the maintained (possibly drifted) shared vector.
func (s *Async) SharedVector() []float32 { return s.shared }

// Gap returns the honest convergence certificate.
func (s *Async) Gap() float64 { return s.loss.Gap(s.model) }

// Form reports the formulation.
func (s *Async) Form() perfmodel.Form { return s.loss.Form() }

// Name identifies the solver. Both branches carry the loss tag: without
// it, wild traces and bench records were indistinguishable across losses.
func (s *Async) Name() string {
	if s.wild {
		return fmt.Sprintf("PASSCoDe-Wild-%s (%d threads)", s.loss.Name(), s.threads)
	}
	return fmt.Sprintf("A-%s (%d threads)", s.loss.Name(), s.threads)
}

// EpochWork returns per-epoch work counts.
func (s *Async) EpochWork() (int64, int64) { return s.loss.NNZ(), int64(s.loss.NumCoords()) }
