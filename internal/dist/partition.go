// Package dist implements the distributed stochastic learning algorithms of
// Sections IV and V of the paper: synchronous distributed SCD (Algorithm 3,
// a CoCoA-style scheme with σ=1) and distributed SCD with adaptive
// aggregation (Algorithm 4, the paper's novel contribution), over pluggable
// local solvers — sequential SCD, the multi-threaded CPU variants, or
// TPA-SCD running on a simulated GPU.
//
// The training data is partitioned by feature when solving the primal form
// and by training example when solving the dual form. Every epoch each
// worker runs one local pass over its coordinates, the shared-vector deltas
// are reduced on a master, scaled by the aggregation parameter γ (1/K for
// averaging; the closed-form optimum for adaptive aggregation), and the new
// shared vector is broadcast back. That round is written once (Worker); the
// loss family — ridge regression as in the paper, or the SVM dual CoCoA was
// built for — enters through its partition's loss (Local) and its γ* and
// duality gap (Family).
package dist

import (
	"fmt"
	"sort"

	"tpascd/internal/partition"
	"tpascd/internal/rng"
)

// Partition assigns each of n coordinates to one of k parts and returns the
// per-part index lists, each sorted ascending.
type Partition [][]int

// Validate checks that the partition is an exact cover of 0..n-1.
func (p Partition) Validate(n int) error {
	seen := make([]bool, n)
	total := 0
	for k, part := range p {
		for _, id := range part {
			if id < 0 || id >= n {
				return fmt.Errorf("dist: partition %d contains out-of-range id %d", k, id)
			}
			if seen[id] {
				return fmt.Errorf("dist: id %d assigned twice", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("dist: partition covers %d of %d ids", total, n)
	}
	return nil
}

// PartitionContiguous splits 0..n-1 into k contiguous ranges of near-equal
// size. Rank r owns partition.Range(n, k, r) — the same cut
// checkpoint.ShardRange makes when a serving checkpoint is sharded, which
// is what lets -shard-out training save each rank's slice directly as
// serving shard r of k.
func PartitionContiguous(n, k int) Partition {
	parts := make(Partition, k)
	for r := 0; r < k; r++ {
		lo, hi := partition.Range(n, k, r)
		part := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			part = append(part, i)
		}
		parts[r] = part
	}
	return parts
}

// PartitionRandom assigns coordinates to parts uniformly at random (sizes
// near-equal), the "randomly distribute the rows across the workers"
// strategy of Section V-B. Sorted within each part.
func PartitionRandom(n, k int, seed uint64) Partition {
	r := rng.New(seed)
	perm := r.Perm(n, nil)
	parts := make(Partition, k)
	for rank := 0; rank < k; rank++ {
		lo, hi := partition.Range(n, k, rank)
		part := make([]int, hi-lo)
		copy(part, perm[lo:hi])
		sort.Ints(part)
		parts[rank] = part
	}
	return parts
}
