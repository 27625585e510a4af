package engine_test

import (
	"math"
	"testing"

	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func testProblem(t testing.TB, seed uint64, n, m, nnzPerRow int, lambda float64) *ridge.Problem {
	t.Helper()
	r := rng.New(seed)
	coo := sparse.NewCOO(n, m, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Append(i, r.Intn(m), float32(r.NormFloat64()))
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newSeq(p *ridge.Problem, form perfmodel.Form, seed uint64) *engine.Sequential {
	return engine.NewSequential(ridge.NewLoss(p, form), seed)
}

func newAtomic(p *ridge.Problem, form perfmodel.Form, threads int, seed uint64) *engine.Async {
	return engine.NewAtomic(ridge.NewLoss(p, form), threads, seed)
}

func newWild(p *ridge.Problem, form perfmodel.Form, threads int, seed uint64) *engine.Async {
	return engine.NewWild(ridge.NewLoss(p, form), threads, seed)
}

func runEpochs(s engine.Solver, epochs int) {
	for e := 0; e < epochs; e++ {
		s.RunEpoch()
	}
}

func TestSequentialPrimalConverges(t *testing.T) {
	p := testProblem(t, 1, 200, 100, 8, 0.01)
	s := newSeq(p, perfmodel.Primal, 42)
	g0 := s.Gap()
	runEpochs(s, 60)
	g := s.Gap()
	if g >= g0 {
		t.Fatalf("gap did not decrease: %v -> %v", g0, g)
	}
	if g > 1e-5 {
		t.Fatalf("gap after 60 epochs = %v", g)
	}
}

func TestSequentialDualConverges(t *testing.T) {
	p := testProblem(t, 2, 150, 120, 8, 0.01)
	s := newSeq(p, perfmodel.Dual, 42)
	runEpochs(s, 60)
	if g := s.Gap(); g > 1e-5 {
		t.Fatalf("dual gap after 60 epochs = %v", g)
	}
}

func TestSequentialSharedVectorConsistency(t *testing.T) {
	p := testProblem(t, 3, 100, 80, 6, 0.05)
	s := newSeq(p, perfmodel.Primal, 7)
	runEpochs(s, 5)
	fresh := make([]float32, p.N)
	p.A.MulVec(fresh, s.Model())
	for i := range fresh {
		if math.Abs(float64(fresh[i]-s.SharedVector()[i])) > 1e-3 {
			t.Fatalf("shared vector drifted at %d: %v vs %v", i, s.SharedVector()[i], fresh[i])
		}
	}
}

func TestSequentialDeterministicGivenSeed(t *testing.T) {
	p := testProblem(t, 4, 80, 60, 5, 0.02)
	a := newSeq(p, perfmodel.Primal, 99)
	b := newSeq(p, perfmodel.Primal, 99)
	runEpochs(a, 3)
	runEpochs(b, 3)
	for j := range a.Model() {
		if a.Model()[j] != b.Model()[j] {
			t.Fatalf("same seed diverged at coordinate %d", j)
		}
	}
}

func TestSequentialSetModelRecomputesShared(t *testing.T) {
	p := testProblem(t, 16, 80, 60, 5, 0.02)
	a := newSeq(p, perfmodel.Primal, 99)
	runEpochs(a, 3)
	b := newSeq(p, perfmodel.Primal, 99)
	b.SetModel(a.Model())
	fresh := make([]float32, p.N)
	p.A.MulVec(fresh, a.Model())
	for i := range fresh {
		if b.SharedVector()[i] != fresh[i] {
			t.Fatalf("SetModel shared vector mismatch at %d", i)
		}
	}
}

func TestAtomicMatchesSequentialConvergence(t *testing.T) {
	p := testProblem(t, 5, 300, 150, 8, 0.01)
	seq := newSeq(p, perfmodel.Primal, 1)
	atom := newAtomic(p, perfmodel.Primal, 8, 1)
	runEpochs(seq, 40)
	runEpochs(atom, 40)
	gs, ga := seq.Gap(), atom.Gap()
	// A-SCD converges like the sequential algorithm per epoch; allow an
	// order of magnitude of slack for the asynchronous interleaving.
	if ga > 100*gs+1e-7 {
		t.Fatalf("A-SCD gap %v far worse than sequential %v", ga, gs)
	}
}

func TestAtomicNoSharedDrift(t *testing.T) {
	p := testProblem(t, 6, 200, 100, 8, 0.01)
	atom := newAtomic(p, perfmodel.Primal, 8, 3)
	runEpochs(atom, 10)
	if d := atom.SharedDrift(); d > 1e-6 {
		t.Fatalf("atomic solver drifted: %v", d)
	}
}

func TestWildConvergesToViolatingSolution(t *testing.T) {
	// With enough contention the wild solver's maintained shared vector
	// drifts from the model; the gap floor is the paper's key
	// observation (Fig. 1). Use dense-ish columns to force races.
	p := testProblem(t, 7, 400, 60, 30, 0.001)
	wild := newWild(p, perfmodel.Primal, 16, 3)
	runEpochs(wild, 100)
	seq := newSeq(p, perfmodel.Primal, 3)
	runEpochs(seq, 100)
	gw, gs := wild.Gap(), seq.Gap()
	if gs > 1e-8 {
		t.Fatalf("sequential baseline did not converge: %v", gs)
	}
	if gw < 10*gs {
		t.Logf("warning: wild gap %v close to sequential %v; races may not have materialized on this machine", gw, gs)
	}
	// Even if the gap happens to be small, the optimality residuals must
	// reflect the drift or the wild run degenerated to sequential.
	if d := wild.SharedDrift(); d == 0 {
		t.Log("no measurable drift; single-core machine?")
	}
}

func TestWildStillUsefulSolution(t *testing.T) {
	// The paper notes the wild solution "may still be useful": its primal
	// value must be close to (though above) the optimum.
	p := testProblem(t, 8, 300, 80, 10, 0.01)
	wild := newWild(p, perfmodel.Primal, 8, 5)
	runEpochs(wild, 60)
	_, ref, err := p.SolveReference(1e-10, 400)
	if err != nil {
		t.Fatal(err)
	}
	got := p.PrimalValue(wild.Model())
	if got < ref-1e-6 {
		t.Fatalf("wild value %v below optimum %v: impossible", got, ref)
	}
	if got > ref*1.5+0.1 {
		t.Fatalf("wild value %v far above optimum %v", got, ref)
	}
}

func TestDualAsyncConverges(t *testing.T) {
	p := testProblem(t, 9, 250, 120, 8, 0.01)
	atom := newAtomic(p, perfmodel.Dual, 8, 2)
	runEpochs(atom, 30)
	if g := atom.Gap(); g > 1e-4 {
		t.Fatalf("dual A-SCD gap = %v", g)
	}
}

func TestRecomputeSharedRepairsDrift(t *testing.T) {
	p := testProblem(t, 10, 300, 60, 20, 0.001)
	wild := newWild(p, perfmodel.Primal, 16, 1)
	runEpochs(wild, 30)
	wild.RecomputeShared()
	if d := wild.SharedDrift(); d > 1e-10 {
		t.Fatalf("drift after recompute = %v", d)
	}
}

func TestEpochWorkCounts(t *testing.T) {
	p := testProblem(t, 11, 50, 30, 4, 0.1)
	s := newSeq(p, perfmodel.Primal, 1)
	nnz, coords := s.EpochWork()
	if nnz != int64(p.A.NNZ()) {
		t.Fatalf("nnz = %d, want %d", nnz, p.A.NNZ())
	}
	if coords != int64(p.M) {
		t.Fatalf("primal coords = %d, want M=%d", coords, p.M)
	}
	d := newSeq(p, perfmodel.Dual, 1)
	_, coords = d.EpochWork()
	if coords != int64(p.N) {
		t.Fatalf("dual coords = %d, want N=%d", coords, p.N)
	}
}

func TestNames(t *testing.T) {
	p := testProblem(t, 12, 20, 10, 3, 0.1)
	if newSeq(p, perfmodel.Primal, 1).Name() != "SCD (1 thread)" {
		t.Fatal("sequential name")
	}
	if newAtomic(p, perfmodel.Primal, 16, 1).Name() != "A-SCD (16 threads)" {
		t.Fatal("atomic name")
	}
	if newWild(p, perfmodel.Primal, 16, 1).Name() != "PASSCoDe-Wild-SCD (16 threads)" {
		t.Fatal("wild name")
	}
	if engine.NewSyscd(ridge.NewLoss(p, perfmodel.Primal), 8, 0, 1).Name() != "SySCD-SCD (8 threads, bucket 16)" {
		t.Fatal("syscd name")
	}
}

func TestAsyncPanicsOnZeroThreads(t *testing.T) {
	p := testProblem(t, 13, 20, 10, 3, 0.1)
	defer func() {
		if recover() == nil {
			t.Fatal("threads=0 accepted")
		}
	}()
	newAtomic(p, perfmodel.Primal, 0, 1)
}

func TestSolverInterfaceCompliance(t *testing.T) {
	p := testProblem(t, 14, 20, 10, 3, 0.1)
	var _ engine.Solver = newSeq(p, perfmodel.Primal, 1)
	var _ engine.Solver = newAtomic(p, perfmodel.Dual, 2, 1)
	var _ engine.Solver = newWild(p, perfmodel.Dual, 2, 1)
	var _ engine.Loss = ridge.NewLoss(p, perfmodel.Primal)
}

func TestTrainHooksObserveEveryEpoch(t *testing.T) {
	p := testProblem(t, 17, 60, 40, 4, 0.05)
	s := newSeq(p, perfmodel.Primal, 1)
	var events []engine.EpochEvent
	epochs, gap := engine.Train(s, 5, 2.0, nil, func(ev engine.EpochEvent) {
		events = append(events, ev)
	})
	if epochs != 5 {
		t.Fatalf("epochs = %d", epochs)
	}
	if len(events) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(events))
	}
	wantNNZ := int64(p.A.NNZ())
	for i, ev := range events {
		if ev.Epoch != i+1 {
			t.Fatalf("event %d epoch = %d", i, ev.Epoch)
		}
		if ev.NNZ != wantNNZ || ev.Updates != int64(p.M) {
			t.Fatalf("event %d work = (%d,%d)", i, ev.NNZ, ev.Updates)
		}
		if math.Abs(ev.Seconds-2.0*float64(i+1)) > 1e-12 {
			t.Fatalf("event %d seconds = %v", i, ev.Seconds)
		}
		if i > 0 && ev.Gap > events[i-1].Gap*10 {
			t.Fatalf("gap exploded at epoch %d: %v -> %v", ev.Epoch, events[i-1].Gap, ev.Gap)
		}
	}
	if gap != events[4].Gap {
		t.Fatalf("returned gap %v != last event gap %v", gap, events[4].Gap)
	}
}

func TestTrainEarlyStopStillFiresHook(t *testing.T) {
	p := testProblem(t, 18, 60, 40, 4, 0.05)
	s := newSeq(p, perfmodel.Primal, 1)
	fired := 0
	epochs, _ := engine.Train(s, 50, 0, func(epoch int, gap float64) bool {
		return epoch < 3
	}, func(engine.EpochEvent) { fired++ })
	if epochs != 3 {
		t.Fatalf("epochs = %d, want 3", epochs)
	}
	if fired != 3 {
		t.Fatalf("hook fired %d times, want 3", fired)
	}
}

func BenchmarkSequentialEpochPrimal(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := newSeq(p, perfmodel.Primal, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

func BenchmarkAtomicEpochPrimal8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := newAtomic(p, perfmodel.Primal, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

func BenchmarkWildEpochPrimal8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s := newWild(p, perfmodel.Primal, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

// Periodic shared-vector recomputation (the repair scheme of Tran et al.,
// reference [13]) bounds the wild solver's drift.
func TestPeriodicRecomputeBoundsDrift(t *testing.T) {
	p := testProblem(t, 15, 400, 60, 25, 0.001)
	repaired := newWild(p, perfmodel.Primal, 16, 9)
	repaired.SetRecomputeEvery(1)
	unrepaired := newWild(p, perfmodel.Primal, 16, 9)
	for e := 0; e < 40; e++ {
		repaired.RunEpoch()
		unrepaired.RunEpoch()
	}
	dr, du := repaired.SharedDrift(), unrepaired.SharedDrift()
	if dr > 1e-10 {
		t.Fatalf("repaired solver still drifted: %v", dr)
	}
	if du > 0 && dr >= du {
		t.Fatalf("repair did not reduce drift: %v vs %v", dr, du)
	}
	// Repair also restores convergence toward the true optimum.
	gr := repaired.Gap()
	if gr > 1e-3 {
		t.Fatalf("repaired wild solver gap = %v", gr)
	}
}
