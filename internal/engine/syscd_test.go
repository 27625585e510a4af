package engine_test

import (
	"testing"

	"tpascd/internal/elasticnet"
	"tpascd/internal/engine"
	"tpascd/internal/logistic"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/svm"
)

func newSyscdSolver(t testing.TB, l engine.Loss, threads int, seed uint64) engine.Solver {
	t.Helper()
	s, err := engine.NewSolver(l, engine.DriverSpec{Name: "syscd", Threads: threads, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// At one thread SySCD has no replicas to merge and must run Algorithm 1
// verbatim — the trajectories below are the same golden constants the
// Sequential driver is pinned to, compared bitwise for every loss family.
func TestSyscdGoldenSingleThreadRidgePrimal(t *testing.T) {
	p := testProblem(t, 101, 200, 120, 8, 0.01)
	s := newSyscdSolver(t, ridge.NewLoss(p, perfmodel.Primal), 1, 42)
	got := trajectory(goldenEpochs, func() float64 {
		s.RunEpoch()
		return s.Gap()
	})
	diffTrajectory(t, "syscd@1 ridge-primal", got, goldenRidgePrimal)
}

func TestSyscdGoldenSingleThreadRidgeDual(t *testing.T) {
	p := testProblem(t, 101, 200, 120, 8, 0.01)
	s := newSyscdSolver(t, ridge.NewLoss(p, perfmodel.Dual), 1, 42)
	got := trajectory(goldenEpochs, func() float64 {
		s.RunEpoch()
		return s.Gap()
	})
	diffTrajectory(t, "syscd@1 ridge-dual", got, goldenRidgeDual)
}

func TestSyscdGoldenSingleThreadElasticNet(t *testing.T) {
	p := testProblem(t, 101, 200, 120, 8, 0.01)
	ep, err := elasticnet.NewProblem(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := newSyscdSolver(t, elasticnet.NewLoss(ep), 1, 42)
	got := trajectory(goldenEpochs, func() float64 {
		s.RunEpoch()
		return s.Gap()
	})
	diffTrajectory(t, "syscd@1 elastic-net", got, goldenElasticNet)
}

func TestSyscdGoldenSingleThreadSVMHinge(t *testing.T) {
	a, y := classProblem(202, 200, 120, 8)
	sp, err := svm.NewProblem(a, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s := newSyscdSolver(t, svm.NewLoss(sp), 1, 42)
	got := trajectory(goldenEpochs, func() float64 {
		s.RunEpoch()
		return s.Gap()
	})
	diffTrajectory(t, "syscd@1 svm-hinge", got, goldenSVMHinge)
}

func TestSyscdGoldenSingleThreadLogistic(t *testing.T) {
	a, y := classProblem(202, 200, 120, 8)
	lp, err := logistic.NewProblem(a, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s := newSyscdSolver(t, logistic.NewLoss(lp), 1, 42)
	got := trajectory(goldenEpochs, func() float64 {
		s.RunEpoch()
		return s.Gap()
	})
	diffTrajectory(t, "syscd@1 logistic", got, goldenLogistic)
}

// The merge scheme loses no updates, so at 8 threads the certificate must
// reach the sequential floor — the defining contrast with wild, whose lost
// updates leave it on a plateau orders of magnitude above it.
func TestSyscdGapFloor8ThreadsPrimal(t *testing.T) {
	p := testProblem(t, 606, 400, 200, 8, 0.01)
	seq := newSeq(p, perfmodel.Primal, 5)
	sys := newSyscdSolver(t, ridge.NewLoss(p, perfmodel.Primal), 8, 5)
	runEpochs(seq, 30)
	runEpochs(sys, 30)
	gs, gy := seq.Gap(), sys.Gap()
	if gs > 1e-8 {
		t.Fatalf("sequential did not converge: %v", gs)
	}
	if gy > 1000*gs+1e-7 {
		t.Fatalf("syscd gap %v does not reach sequential floor %v", gy, gs)
	}
}

func TestSyscdGapFloor8ThreadsDual(t *testing.T) {
	p := testProblem(t, 707, 400, 200, 8, 0.01)
	seq := newSeq(p, perfmodel.Dual, 5)
	sys := newSyscdSolver(t, ridge.NewLoss(p, perfmodel.Dual), 8, 5)
	runEpochs(seq, 40)
	runEpochs(sys, 40)
	gs, gy := seq.Gap(), sys.Gap()
	if gy > 1000*gs+1e-6 {
		t.Fatalf("syscd dual gap %v does not reach sequential floor %v", gy, gs)
	}
}

// Non-default bucket and merge settings must still converge — the knobs
// trade staleness for merge traffic, they must never lose updates.
func TestSyscdBucketAndMergeKnobs(t *testing.T) {
	p := testProblem(t, 808, 300, 150, 8, 0.01)
	for _, cfg := range []struct {
		bucket, mergeEvery int
	}{
		{1, 0},   // degenerate buckets: per-coordinate dealing
		{64, 1},  // merge after every bucket: minimal staleness
		{32, 64}, // long merge period: maximal staleness
	} {
		s, err := engine.NewSolver(ridge.NewLoss(p, perfmodel.Primal), engine.DriverSpec{
			Name: "syscd", Threads: 4, Seed: 9,
			BucketSize: cfg.bucket, MergeEvery: cfg.mergeEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		runEpochs(s, 30)
		if g := s.Gap(); g > 1e-6 {
			t.Fatalf("syscd bucket=%d mergeEvery=%d gap %v did not converge",
				cfg.bucket, cfg.mergeEvery, g)
		}
	}
}

// SharedVector must hold the exact sum of applied updates after each epoch
// (every thread's final merge runs before RunEpoch returns): drift against
// the recomputed shared vector stays at float-reassociation level, unlike
// wild where lost updates make it grow.
func TestSyscdSharedVectorConsistent(t *testing.T) {
	p := testProblem(t, 909, 300, 150, 8, 0.01)
	l := ridge.NewLoss(p, perfmodel.Primal)
	s := engine.NewSyscd(l, 8, 0, 3)
	for e := 0; e < 10; e++ {
		s.RunEpoch()
	}
	fresh := make([]float32, l.SharedLen())
	l.RecomputeShared(fresh, s.Model())
	var num, den float64
	for i, f := range fresh {
		d := float64(s.SharedVector()[i]) - float64(f)
		num += d * d
		den += float64(f) * float64(f)
	}
	if drift := num / (1 + den); drift > 1e-9 {
		t.Fatalf("syscd shared vector drift %v — updates were lost", drift)
	}
}

func BenchmarkSyscdEpochPrimal8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := engine.NewSyscd(ridge.NewLoss(p, perfmodel.Primal), 8, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

func BenchmarkSyscdEpochDual8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := engine.NewSyscd(ridge.NewLoss(p, perfmodel.Dual), 8, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

func BenchmarkAtomicEpochDual8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := newAtomic(p, perfmodel.Dual, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}
