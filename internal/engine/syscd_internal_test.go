package engine

import (
	"reflect"
	"testing"

	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

// With more than one thread syscd permutes buckets, not coordinates, so
// SkipEpochs must burn draws of that size: after skipping two epochs the
// next bucket permutation is the one a driver that ran them draws third.
// (The permutation is drawn before the worker threads start, so it is
// deterministic even though the parallel epoch's floats are not.)
func TestSyscdSkipEpochsDrawsBucketPermutations(t *testing.T) {
	const n, m = 40, 50
	r := rng.New(1)
	coo := sparse.NewCOO(n, m, n*4)
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			coo.Append(i, r.Intn(m), float32(r.NormFloat64()))
		}
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	l := ridge.NewLoss(p, perfmodel.Primal)

	ran := NewSyscd(l, 4, 8, 3)
	for e := 0; e < 3; e++ {
		ran.RunEpoch()
	}
	skipped := NewSyscd(l, 4, 8, 3)
	skipped.SkipEpochs(2)
	skipped.RunEpoch()
	if len(skipped.perm) != skipped.NumBuckets() || !reflect.DeepEqual(skipped.perm, ran.perm) {
		t.Fatalf("third-epoch bucket permutation after SkipEpochs(2) = %v, an uninterrupted driver drew %v",
			skipped.perm, ran.perm)
	}
}
