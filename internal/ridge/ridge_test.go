package ridge

import (
	"math"
	"testing"
	"testing/quick"

	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

// testProblem builds a small random sparse problem.
func testProblem(t testing.TB, seed uint64, n, m, nnzPerRow int, lambda float64) *Problem {
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
	p, err := NewProblem(coo.ToCSR(), y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	p := testProblem(t, 1, 10, 5, 3, 0.1)
	if p.N != 10 || p.M != 5 {
		t.Fatalf("N,M = %d,%d", p.N, p.M)
	}
	if _, err := NewProblem(nil, nil, 1); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := NewProblem(p.A, p.Y[:3], 1); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := NewProblem(p.A, p.Y, 0); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	if _, err := NewProblem(p.A, p.Y, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestPrimalValueZeroBeta(t *testing.T) {
	p := testProblem(t, 2, 20, 10, 4, 0.01)
	beta := make([]float32, p.M)
	// P(0) = ‖y‖²/(2N)
	var yy float64
	for _, v := range p.Y {
		yy += float64(v) * float64(v)
	}
	want := yy / (2 * float64(p.N))
	if got := p.PrimalValue(beta); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P(0) = %v, want %v", got, want)
	}
}

func TestDualValueZeroAlpha(t *testing.T) {
	p := testProblem(t, 3, 20, 10, 4, 0.01)
	alpha := make([]float32, p.N)
	if got := p.DualValue(alpha); got != 0 {
		t.Fatalf("D(0) = %v, want 0", got)
	}
}

// Weak duality: P(β) >= D(α) for any pair.
func TestWeakDuality(t *testing.T) {
	p := testProblem(t, 4, 30, 15, 5, 0.05)
	r := rng.New(99)
	for trial := 0; trial < 25; trial++ {
		beta := make([]float32, p.M)
		alpha := make([]float32, p.N)
		for j := range beta {
			beta[j] = float32(r.NormFloat64())
		}
		for i := range alpha {
			alpha[i] = float32(r.NormFloat64() * 0.1)
		}
		if pv, dv := p.PrimalValue(beta), p.DualValue(alpha); pv < dv-1e-6 {
			t.Fatalf("weak duality violated: P=%v < D=%v", pv, dv)
		}
	}
}

// The gap of the mapped pair is non-negative and zero only at the optimum.
func TestGapNonNegative(t *testing.T) {
	p := testProblem(t, 5, 25, 12, 4, 0.02)
	r := rng.New(7)
	f := func(scaleRaw float32) bool {
		scale := float32(math.Mod(float64(scaleRaw), 8))
		if math.IsNaN(float64(scale)) {
			scale = 1
		}
		beta := make([]float32, p.M)
		for j := range beta {
			beta[j] = float32(r.NormFloat64()) * scale / 8
		}
		return p.GapPrimal(beta) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// PrimalDelta is the exact minimizer of the 1-D restriction: after applying
// the update, the partial derivative w.r.t. that coordinate is 0, and any
// other step increases P.
func TestPrimalDeltaIsExactMinimizer(t *testing.T) {
	p := testProblem(t, 6, 40, 20, 6, 0.1)
	r := rng.New(8)
	beta := make([]float32, p.M)
	for j := range beta {
		beta[j] = float32(r.NormFloat64() * 0.2)
	}
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	for trial := 0; trial < 20; trial++ {
		m := r.Intn(p.M)
		delta := p.PrimalDelta(m, w, beta[m])
		apply := func(d float32) float64 {
			b2 := make([]float32, p.M)
			copy(b2, beta)
			b2[m] += d
			return p.PrimalValue(b2)
		}
		best := apply(delta)
		for _, off := range []float32{-0.1, -0.01, 0.01, 0.1} {
			if v := apply(delta + off); v < best-1e-9 {
				t.Fatalf("coordinate %d: step %v not optimal; %v beats %v (off=%v)", m, delta, v, best, off)
			}
		}
	}
}

func TestDualDeltaIsExactMaximizer(t *testing.T) {
	p := testProblem(t, 9, 30, 18, 5, 0.1)
	r := rng.New(10)
	alpha := make([]float32, p.N)
	for i := range alpha {
		alpha[i] = float32(r.NormFloat64() * 0.05)
	}
	wbar := make([]float32, p.M)
	p.A.MulTVec(wbar, alpha)
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(p.N)
		delta := p.DualDelta(n, wbar, alpha[n])
		apply := func(d float32) float64 {
			a2 := make([]float32, p.N)
			copy(a2, alpha)
			a2[n] += d
			return p.DualValue(a2)
		}
		best := apply(delta)
		for _, off := range []float32{-0.05, -0.005, 0.005, 0.05} {
			if v := apply(delta + off); v > best+1e-9 {
				t.Fatalf("coordinate %d: step %v not optimal; %v beats %v", n, delta, v, best)
			}
		}
	}
}

// Exhaustive cyclic coordinate descent must converge to the CG reference
// optimum, closing the duality gap.
func TestCoordinateDescentReachesReferenceOptimum(t *testing.T) {
	p := testProblem(t, 11, 50, 25, 6, 0.1)
	refBeta, refVal, err := p.SolveReference(1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	beta := make([]float32, p.M)
	w := make([]float32, p.N)
	for epoch := 0; epoch < 300; epoch++ {
		for m := 0; m < p.M; m++ {
			d := p.PrimalDelta(m, w, beta[m])
			beta[m] += d
			idx, val := p.ACols().Col(m)
			for k := range idx {
				w[idx[k]] += val[k] * d
			}
		}
	}
	if gap := p.GapPrimalW(beta, w); gap > 1e-6 {
		t.Fatalf("gap after 300 epochs = %v", gap)
	}
	if got := p.PrimalValue(beta); math.Abs(got-refVal) > 1e-4*(1+math.Abs(refVal)) {
		t.Fatalf("CD value %v vs reference %v", got, refVal)
	}
	var dist float64
	for j := range beta {
		d := float64(beta[j] - refBeta[j])
		dist += d * d
	}
	if math.Sqrt(dist) > 1e-2 {
		t.Fatalf("CD solution far from reference: dist=%v", math.Sqrt(dist))
	}
}

// Dual coordinate ascent closes the dual gap, and the mapped primal point
// agrees with the primal optimum (strong duality).
func TestDualAscentClosesGap(t *testing.T) {
	p := testProblem(t, 12, 40, 20, 5, 0.1)
	alpha := make([]float32, p.N)
	wbar := make([]float32, p.M)
	for epoch := 0; epoch < 300; epoch++ {
		for n := 0; n < p.N; n++ {
			d := p.DualDelta(n, wbar, alpha[n])
			alpha[n] += d
			idx, val := p.A.Row(n)
			for k := range idx {
				wbar[idx[k]] += val[k] * d
			}
		}
	}
	if gap := p.GapDualW(alpha, wbar); gap > 1e-6 {
		t.Fatalf("dual gap after 300 epochs = %v", gap)
	}
	_, refVal, err := p.SolveReference(1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if dv := p.DualValue(alpha); math.Abs(dv-refVal) > 1e-4*(1+math.Abs(refVal)) {
		t.Fatalf("strong duality violated: D* = %v vs P* = %v", dv, refVal)
	}
}

func TestOptimalityResiduals(t *testing.T) {
	p := testProblem(t, 13, 40, 20, 5, 0.1)
	// Solve to optimality with cyclic CD.
	beta := make([]float32, p.M)
	w := make([]float32, p.N)
	for epoch := 0; epoch < 400; epoch++ {
		for m := 0; m < p.M; m++ {
			d := p.PrimalDelta(m, w, beta[m])
			beta[m] += d
			idx, val := p.ACols().Col(m)
			for k := range idx {
				w[idx[k]] += val[k] * d
			}
		}
	}
	alpha := p.DualFromPrimal(w)
	bRes, aRes := p.OptimalityResiduals(beta, alpha)
	if bRes > 1e-3 || aRes > 1e-3 {
		t.Fatalf("residuals at optimum: beta %v alpha %v", bRes, aRes)
	}
	// A perturbed pair must show larger residuals.
	beta2 := make([]float32, p.M)
	copy(beta2, beta)
	beta2[0] += 1
	bRes2, _ := p.OptimalityResiduals(beta2, alpha)
	if bRes2 <= bRes {
		t.Fatalf("perturbation did not increase residual: %v <= %v", bRes2, bRes)
	}
}

func TestGapWithRecomputeMatchesIncremental(t *testing.T) {
	p := testProblem(t, 14, 30, 15, 4, 0.05)
	r := rng.New(3)
	beta := make([]float32, p.M)
	for j := range beta {
		beta[j] = float32(r.NormFloat64() * 0.3)
	}
	w := make([]float32, p.N)
	p.A.MulVec(w, beta)
	g1 := p.GapPrimalW(beta, w)
	g2 := p.GapPrimal(beta)
	if math.Abs(g1-g2) > 1e-6*(1+g1) {
		t.Fatalf("gap paths disagree: %v vs %v", g1, g2)
	}
}

func BenchmarkPrimalDelta(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	w := make([]float32, p.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PrimalDelta(i%p.M, w, 0)
	}
}

func BenchmarkGapPrimal(b *testing.B) {
	p := testProblem(b, 1, 4096, 2048, 32, 0.001)
	beta := make([]float32, p.M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.GapPrimal(beta)
	}
}
