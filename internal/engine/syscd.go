package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
)

// DefaultBucketSize is the syscd bucket width in coordinates: 16 float32
// model weights fill one 64-byte cache line, so a bucket's model slots
// never straddle a line owned by another thread's in-flight bucket.
const DefaultBucketSize = 16

// Syscd is the SySCD-style bucketed epoch driver (Ioannou et al., NeurIPS
// 2019 — the same authors' system-aware follow-up to the paper this
// repository reproduces). The engine's other parallel drivers serialize on
// the shared vector: A-SCD pays a lock-prefixed CAS loop per non-zero and
// PASSCoDe-Wild trades the atomics away for lost updates and a
// convergence floor. SySCD removes the contention without losing updates:
//
//   - each worker thread owns a full replica of the shared vector and
//     applies its coordinate updates to that replica with plain (non-atomic)
//     loads and stores — the hot path has no atomic instructions at all;
//   - the coordinates are grouped into contiguous buckets (BucketSize
//     coordinates, one cache line of model weights by default) so a
//     thread's model writes stay cache-local, and each epoch the *buckets*
//     are dealt to threads from a freshly permuted stream — the bucket
//     randomization of SySCD replacing the per-coordinate permutation;
//   - every MergeEvery buckets a thread folds its replica's delta into the
//     authoritative shared vector under a mutex and re-bases on the merged
//     state, so no update is ever lost (unlike wild) and staleness is
//     bounded by the merge period (unlike one-shot model averaging).
//
// Convergence caveat: between merges a thread's inner products miss the
// other threads' updates, so per-epoch progress can trail A-SCD when merge
// periods are long; the certificate still reaches the sequential floor
// because every update survives. At threads=1 there is no second replica
// to race and the driver runs Algorithm 1 verbatim — same permutation
// stream, same arithmetic, bitwise-identical trajectories to Sequential
// (pinned by the golden tests).
type Syscd struct {
	loss    Loss
	model   []float32
	shared  []float32
	rng     *rng.Xoshiro256
	perm    []int
	threads int
	bucket  int

	// mergeEvery is the number of buckets a thread processes between
	// replica merges; 0 selects a per-epoch default at RunEpoch time.
	mergeEvery int

	// repl/base are the per-thread shared-vector replicas and their merge
	// bases, allocated once on first parallel epoch.
	repl [][]float32
	base [][]float32
	mu   sync.Mutex

	recomputeEvery int
	epochsRun      int
}

// NewSyscd returns a SySCD-style solver: threads worker goroutines over
// cache-line-aware coordinate buckets of bucketSize coordinates
// (0 selects DefaultBucketSize), with per-thread shared-vector replicas
// merged periodically instead of per-update atomics.
func NewSyscd(l Loss, threads, bucketSize int, seed uint64) *Syscd {
	if threads < 1 {
		threads = 1
	}
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	return &Syscd{
		loss:    l,
		model:   make([]float32, l.NumCoords()),
		shared:  make([]float32, l.SharedLen()),
		rng:     rng.New(seed),
		threads: threads,
		bucket:  bucketSize,
	}
}

// SetMergeEvery overrides how many buckets a thread processes between
// replica merges (n <= 0 restores the per-epoch default, which bounds
// staleness to roughly a quarter of each thread's epoch share).
func (s *Syscd) SetMergeEvery(n int) {
	if n < 0 {
		n = 0
	}
	s.mergeEvery = n
}

// SetRecomputeEvery enables periodic shared-vector recomputation from the
// model every n epochs (n <= 0 disables it, the default).
func (s *Syscd) SetRecomputeEvery(n int) { s.recomputeEvery = n }

// NumBuckets returns the number of coordinate buckets per epoch.
func (s *Syscd) NumBuckets() int { return (s.loss.NumCoords() + s.bucket - 1) / s.bucket }

// BucketSize returns the configured coordinates per bucket.
func (s *Syscd) BucketSize() int { return s.bucket }

// RunEpoch performs one pass over all coordinates. With a single thread
// there is no contention for bucketing or replicas to hide, so the driver
// runs the sequential body — same permutation draws, same float operations
// in the same order; otherwise the bucket-dealt replica/merge scheme.
func (s *Syscd) RunEpoch() {
	if s.threads == 1 {
		s.perm = s.rng.Perm(s.loss.NumCoords(), s.perm)
		sequentialPass(s.loss, s.perm, s.model, s.shared)
	} else {
		s.runBucketed()
	}
	s.epochsRun++
	if s.recomputeEvery > 0 && s.epochsRun%s.recomputeEvery == 0 {
		s.loss.RecomputeShared(s.shared, s.model)
	}
}

// Bind points the solver at caller-owned state (see Sequential.Bind).
func (s *Syscd) Bind(model, shared []float32) { s.model, s.shared = model, shared }

// SkipEpochs burns n epochs' worth of permutation randomness (see
// Sequential.SkipEpochs). Each epoch draws over the coordinates at one
// thread and over the buckets otherwise, exactly as RunEpoch does.
func (s *Syscd) SkipEpochs(n int) {
	size := s.loss.NumCoords()
	if s.threads > 1 {
		size = s.NumBuckets()
	}
	s.perm = skipPerms(s.rng, s.perm, size, n)
}

// runBucketed deals the permuted bucket stream to the worker threads. Each
// bucket is claimed by exactly one thread per epoch, so model coordinates
// are written race-free; shared-vector visibility flows through the
// merges.
func (s *Syscd) runBucketed() {
	l := s.loss
	numCoords := l.NumCoords()
	numBuckets := s.NumBuckets()
	s.perm = s.rng.Perm(numBuckets, s.perm)
	residual, labels := l.Residual(), l.Labels()

	mergeEvery := s.mergeEvery
	if mergeEvery == 0 {
		// Default: ~4 merges per thread per epoch — staleness bounded to a
		// quarter of a thread's epoch share while keeping the O(SharedLen)
		// merge cost a small fraction of the update work.
		mergeEvery = (numBuckets + 4*s.threads - 1) / (4 * s.threads)
		if mergeEvery < 1 {
			mergeEvery = 1
		}
	}
	if s.repl == nil {
		s.repl = make([][]float32, s.threads)
		s.base = make([][]float32, s.threads)
		for t := range s.repl {
			s.repl[t] = make([]float32, l.SharedLen())
			s.base[t] = make([]float32, l.SharedLen())
		}
	}

	var next int64
	var wg sync.WaitGroup
	for t := 0; t < s.threads; t++ {
		wg.Add(1)
		go func(repl, base []float32) {
			defer wg.Done()
			// Base the replica on the current authoritative state.
			s.mu.Lock()
			copy(repl, s.shared)
			copy(base, s.shared)
			s.mu.Unlock()
			sinceMerge := 0
			dirty := false
			for {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= numBuckets {
					break
				}
				lo := s.perm[b] * s.bucket
				hi := lo + s.bucket
				if hi > numCoords {
					hi = numCoords
				}
				for c := lo; c < hi; c++ {
					d := l.Step(c, dotSlice(l, c, repl, residual, labels), s.model[c])
					if d == 0 {
						continue
					}
					s.model[c] += d
					coeff := l.UpdateCoeff(c, d)
					idx, val := l.CoordNZ(c)
					for k := range idx {
						repl[idx[k]] += val[k] * coeff
					}
					dirty = true
				}
				if sinceMerge++; sinceMerge >= mergeEvery {
					s.merge(repl, base, dirty)
					sinceMerge, dirty = 0, false
				}
			}
			if sinceMerge > 0 {
				s.merge(repl, base, dirty)
			}
		}(s.repl[t], s.base[t])
	}
	wg.Wait()
}

// merge folds the replica's delta since its base into the authoritative
// shared vector and re-bases the replica on the merged state. Deltas from
// different threads commute (float addition reordering aside), so no
// update is lost. dirty=false means the replica only needs re-basing.
func (s *Syscd) merge(repl, base []float32, dirty bool) {
	s.mu.Lock()
	if dirty {
		for i, r := range repl {
			if d := r - base[i]; d != 0 {
				s.shared[i] += d
			}
		}
	}
	copy(repl, s.shared)
	copy(base, s.shared)
	s.mu.Unlock()
}

// Loss returns the loss the solver optimizes.
func (s *Syscd) Loss() Loss { return s.loss }

// Model returns the current weights.
func (s *Syscd) Model() []float32 { return s.model }

// SharedVector returns the maintained shared vector. After RunEpoch it is
// the exact sum of every applied update (merge order aside): the final
// merge of each thread runs before the epoch returns.
func (s *Syscd) SharedVector() []float32 { return s.shared }

// Gap returns the honest convergence certificate.
func (s *Syscd) Gap() float64 { return s.loss.Gap(s.model) }

// Form reports the formulation.
func (s *Syscd) Form() perfmodel.Form { return s.loss.Form() }

// Name identifies the solver.
func (s *Syscd) Name() string {
	return fmt.Sprintf("SySCD-%s (%d threads, bucket %d)", s.loss.Name(), s.threads, s.bucket)
}

// EpochWork returns per-epoch work counts.
func (s *Syscd) EpochWork() (int64, int64) { return s.loss.NNZ(), int64(s.loss.NumCoords()) }
