package sgd

import (
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

func TestOptionsValidation(t *testing.T) {
	p := testProblem(t, 1, 20, 10, 3, 0.1)
	if _, err := New(p, Options{Step: 0}); err == nil {
		t.Fatal("step=0 accepted")
	}
	s, err := New(p, Options{Step: 0.1, Threads: 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.opts.Threads != 1 {
		t.Fatal("threads not defaulted to 1")
	}
}

func TestSequentialSGDDecreasesObjective(t *testing.T) {
	p := testProblem(t, 2, 200, 80, 6, 0.01)
	s, err := New(p, Options{Step: 0.02, Decay: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := s.Objective()
	for e := 0; e < 30; e++ {
		s.RunEpoch()
	}
	end := s.Objective()
	if end >= start {
		t.Fatalf("objective did not decrease: %v -> %v", start, end)
	}
}

func TestHogwildConverges(t *testing.T) {
	p := testProblem(t, 3, 300, 100, 6, 0.01)
	s, err := New(p, Options{Step: 0.02, Decay: 0.1, Threads: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 50; e++ {
		s.RunEpoch()
	}
	_, ref, err := p.SolveReference(1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Objective()
	if got > ref*1.2+0.05 {
		t.Fatalf("Hogwild objective %v far from optimum %v", got, ref)
	}
}

// The paper's premise: SCD converges faster than SGD per epoch (no step
// size to tune, exact coordinate steps).
func TestSCDBeatsSGDPerEpoch(t *testing.T) {
	p := testProblem(t, 4, 300, 120, 8, 0.01)
	sgd, err := New(p, Options{Step: 0.02, Decay: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scdSolver := engine.NewSequential(ridge.NewLoss(p, perfmodel.Primal), 7)
	const epochs = 30
	for e := 0; e < epochs; e++ {
		sgd.RunEpoch()
		scdSolver.RunEpoch()
	}
	if scdSolver.Gap() >= sgd.Gap() {
		t.Fatalf("SCD gap %v not better than SGD gap %v after %d epochs",
			scdSolver.Gap(), sgd.Gap(), epochs)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := testProblem(t, 5, 100, 40, 4, 0.05)
	a, _ := New(p, Options{Step: 0.05, Seed: 11})
	b, _ := New(p, Options{Step: 0.05, Seed: 11})
	for e := 0; e < 5; e++ {
		a.RunEpoch()
		b.RunEpoch()
	}
	for j := range a.Model() {
		if a.Model()[j] != b.Model()[j] {
			t.Fatalf("same seed diverged at %d", j)
		}
	}
}

func TestDecayReducesStep(t *testing.T) {
	p := testProblem(t, 6, 100, 40, 4, 0.05)
	// A large constant step diverges on this problem; decay tames it.
	diverging, _ := New(p, Options{Step: 0.6, Seed: 13})
	decaying, _ := New(p, Options{Step: 0.6, Decay: 2, Seed: 13})
	for e := 0; e < 25; e++ {
		diverging.RunEpoch()
		decaying.RunEpoch()
	}
	if decaying.Objective() >= diverging.Objective() {
		t.Skipf("constant step did not diverge here (objectives %v vs %v)",
			diverging.Objective(), decaying.Objective())
	}
}

func BenchmarkHogwildEpoch8(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	s, err := New(p, Options{Step: 0.01, Threads: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}
