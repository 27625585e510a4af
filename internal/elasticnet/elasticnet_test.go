package elasticnet

import (
	"math"
	"testing"
	"testing/quick"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func testProblem(t testing.TB, seed uint64, n, m, nnzPerRow int, lambda, alpha float64) *Problem {
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
	rp, err := ridge.NewProblem(coo.ToCSR(), y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(rp, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	p := testProblem(t, 1, 20, 10, 3, 0.1, 0.5)
	if _, err := NewProblem(p.Problem, -0.1); err == nil {
		t.Fatal("alpha < 0 accepted")
	}
	if _, err := NewProblem(p.Problem, 1.1); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := NewProblem(nil, 0.5); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ c, t, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {0, 0, 0}, {3, 0, 3},
	}
	for _, c := range cases {
		if got := SoftThreshold(c.c, c.t); got != c.want {
			t.Fatalf("SoftThreshold(%v,%v) = %v, want %v", c.c, c.t, got, c.want)
		}
	}
}

// With α=0 the elastic-net update must equal the ridge update (eq. 2).
func TestAlphaZeroReducesToRidge(t *testing.T) {
	p := testProblem(t, 2, 40, 20, 5, 0.05, 0)
	r := rng.New(3)
	beta := make([]float32, p.M)
	for j := range beta {
		beta[j] = float32(r.NormFloat64() * 0.2)
	}
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	for m := 0; m < p.M; m++ {
		en := p.Delta(m, w, beta[m])
		rg := p.Problem.PrimalDelta(m, w, beta[m])
		if math.Abs(float64(en-rg)) > 1e-5 {
			t.Fatalf("coordinate %d: elastic-net delta %v != ridge delta %v", m, en, rg)
		}
	}
}

// The coordinate step is the exact 1-D minimizer of F.
func TestDeltaIsExactMinimizer(t *testing.T) {
	p := testProblem(t, 3, 30, 15, 4, 0.05, 0.7)
	r := rng.New(5)
	beta := make([]float32, p.M)
	for j := range beta {
		beta[j] = float32(r.NormFloat64() * 0.3)
	}
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	for trial := 0; trial < 15; trial++ {
		m := r.Intn(p.M)
		d := p.Delta(m, w, beta[m])
		apply := func(step float32) float64 {
			b2 := make([]float32, p.M)
			copy(b2, beta)
			b2[m] += step
			return p.Objective(b2)
		}
		best := apply(d)
		for _, off := range []float32{-0.1, -0.01, 0.01, 0.1} {
			if v := apply(d + off); v < best-1e-9 {
				t.Fatalf("coordinate %d: step %v not optimal (%v beats %v)", m, d, v, best)
			}
		}
	}
}

// Coordinate descent monotonically decreases the objective.
func TestObjectiveMonotone(t *testing.T) {
	p := testProblem(t, 4, 100, 60, 6, 0.02, 0.5)
	s := NewSequential(p, 7)
	prev := s.Objective()
	for e := 0; e < 20; e++ {
		s.RunEpoch()
		cur := s.Objective()
		if cur > prev+1e-9 {
			t.Fatalf("epoch %d increased objective: %v -> %v", e, prev, cur)
		}
		prev = cur
	}
}

func TestConvergesToKKT(t *testing.T) {
	p := testProblem(t, 5, 120, 60, 6, 0.02, 0.5)
	s := NewSequential(p, 9)
	for e := 0; e < 150; e++ {
		s.RunEpoch()
	}
	if v := p.OptimalityViolation(s.Model()); v > 1e-5 {
		t.Fatalf("KKT violation after 150 epochs = %v", v)
	}
}

// Larger α (more L1) yields sparser solutions.
func TestL1InducesSparsity(t *testing.T) {
	base := testProblem(t, 6, 150, 80, 6, 0.05, 0)
	run := func(alpha float64) int {
		p, err := NewProblem(base.Problem, alpha)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSequential(p, 11)
		for e := 0; e < 100; e++ {
			s.RunEpoch()
		}
		return NNZWeights(s.Model())
	}
	dense := run(0.0)
	sparse9 := run(0.9)
	if sparse9 >= dense {
		t.Fatalf("alpha=0.9 gave %d non-zeros, alpha=0 gave %d; L1 did not sparsify", sparse9, dense)
	}
	if sparse9 == 0 {
		t.Fatal("alpha=0.9 zeroed the whole model")
	}
}

// The GPU kernel converges to the same objective as the CPU solver.
func TestGPUMatchesCPU(t *testing.T) {
	p := testProblem(t, 7, 120, 60, 6, 0.02, 0.6)
	cpu := NewSequential(p, 13)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	gpu, err := NewGPU(p, dev, 32, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.Close()
	for e := 0; e < 80; e++ {
		cpu.RunEpoch()
		gpu.RunEpoch()
	}
	oc, og := cpu.Objective(), gpu.Objective()
	if math.Abs(oc-og) > 1e-4*(1+math.Abs(oc)) {
		t.Fatalf("GPU objective %v vs CPU %v", og, oc)
	}
	if v := p.OptimalityViolation(gpu.Model()); v > 1e-4 {
		t.Fatalf("GPU KKT violation = %v", v)
	}
}

func TestGPUValidation(t *testing.T) {
	p := testProblem(t, 8, 30, 15, 3, 0.1, 0.5)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	if _, err := NewGPU(p, dev, 33, 1); err == nil {
		t.Fatal("bad block size accepted")
	}
	small := perfmodel.GPUM4000
	small.MemBytes = 10
	tiny := gpusim.NewDevice(small)
	if _, err := NewGPU(p, tiny, 32, 1); err == nil {
		t.Fatal("OOM not detected")
	}
	if tiny.Allocated() != 0 {
		t.Fatal("failed construction leaked device memory")
	}
}

func TestGPUCloseReleases(t *testing.T) {
	p := testProblem(t, 9, 30, 15, 3, 0.1, 0.5)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	g, err := NewGPU(p, dev, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if dev.Allocated() != 0 {
		t.Fatalf("Close leaked %d bytes", dev.Allocated())
	}
}

// Property: the objective is bounded below by 0 minus nothing — F ≥ 0 when
// computed on any finite model (quadratic + norms are nonnegative; the
// loss is nonnegative).
func TestObjectiveNonNegative(t *testing.T) {
	p := testProblem(t, 10, 40, 20, 4, 0.05, 0.5)
	r := rng.New(17)
	f := func(scaleRaw float32) bool {
		scale := float32(math.Mod(float64(scaleRaw), 4))
		if math.IsNaN(float64(scale)) {
			scale = 1
		}
		beta := make([]float32, p.M)
		for j := range beta {
			beta[j] = float32(r.NormFloat64()) * scale
		}
		return p.Objective(beta) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Ridge-vs-elasticnet cross check: at α=0 the sequential solvers of both
// packages follow the same trajectory given the same seed.
func TestRidgeTrajectoryCrossCheck(t *testing.T) {
	p := testProblem(t, 11, 80, 40, 5, 0.05, 0)
	en := NewSequential(p, 21)
	rg := engine.NewSequential(ridge.NewLoss(p.Problem, perfmodel.Primal), 21)
	for e := 0; e < 10; e++ {
		en.RunEpoch()
		rg.RunEpoch()
	}
	for j := range en.Model() {
		if math.Abs(float64(en.Model()[j]-rg.Model()[j])) > 1e-4 {
			t.Fatalf("trajectories diverged at coordinate %d: %v vs %v", j, en.Model()[j], rg.Model()[j])
		}
	}
}

func BenchmarkElasticNetEpoch(b *testing.B) {
	p := testProblem(b, 1, 2048, 1024, 16, 0.01, 0.5)
	s := NewSequential(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}
