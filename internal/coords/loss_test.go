package coords

import (
	"math"
	"testing"

	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
)

// At σ′ = 1 the view-backed loss is the ridge loss: every step is
// bit-identical, which is what lets a distributed local solver reproduce
// the single-node trajectory exactly.
func TestLossStepBitwiseMatchesRidgeAtSigmaOne(t *testing.T) {
	p := testProblem(t, 6, 50, 30, 5, 0.02)
	r := rng.New(7)
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		v := FromProblem(p, form)
		got, want := NewLoss(v, 1), ridge.NewLoss(p, form)
		if got.DataBytes() != v.Bytes()+4*int64(v.Num) {
			t.Fatalf("%v DataBytes = %d, want view bytes + permutation", form, got.DataBytes())
		}
		for c := 0; c < v.Num; c++ {
			dp, cur := r.NormFloat64(), float32(r.NormFloat64())
			g, w := got.Step(c, dp, cur), want.Step(c, dp, cur)
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%v coordinate %d: step %v, ridge %v", form, c, g, w)
			}
			if got.UpdateCoeff(c, g) != g {
				t.Fatalf("%v: σ′ = 1 update coefficient is not the step", form)
			}
		}
	}
}

// σ′ scales the curvature term of the step and the step's shared-vector
// coefficient, and nothing else.
func TestLossSigmaDampsCurvature(t *testing.T) {
	p := testProblem(t, 8, 40, 25, 5, 0.05)
	const sigma = 4
	nl := float64(p.N) * p.Lambda
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		v := FromProblem(p, form)
		exact, damped := NewLoss(v, 1), NewLoss(v, sigma)
		for c := 0; c < v.Num; c++ {
			e, d := float64(exact.Step(c, 0.7, 0.1)), float64(damped.Step(c, 0.7, 0.1))
			want := e * (v.Norms[c] + nl) / (sigma*v.Norms[c] + nl)
			if math.Abs(d-want) > 1e-6*math.Abs(want)+1e-9 {
				t.Fatalf("%v coordinate %d: damped step %v, want %v", form, c, d, want)
			}
		}
		if got := damped.UpdateCoeff(0, 0.5); got != sigma*0.5 {
			t.Fatalf("%v: update coefficient %v, want σ′·δ = %v", form, got, sigma*0.5)
		}
		if below := NewLoss(v, 0.5).Step(0, 0.7, 0.1); below != exact.Step(0, 0.7, 0.1) {
			t.Fatalf("%v: σ′ < 1 not treated as 1", form)
		}
	}
}

// The partitions' shares of the shared vector sum to the whole-problem
// product, which is how a resumed group rebuilds it.
func TestMulModelSharesSumToWhole(t *testing.T) {
	p := testProblem(t, 9, 45, 28, 5, 0.05)
	r := rng.New(11)
	beta := make([]float32, p.M)
	for j := range beta {
		beta[j] = float32(r.NormFloat64())
	}
	want := make([]float32, p.N)
	p.A.MulVec(want, beta)

	sum := make([]float64, p.N)
	share := make([]float32, p.N)
	for _, ids := range [][]int{evens(p.M), odds(p.M)} {
		part := make([]float32, len(ids))
		for k, id := range ids {
			part[k] = beta[id]
		}
		share[0] = 99 // stale contents must be overwritten
		NewLoss(Subset(p, perfmodel.Primal, ids), 1).RecomputeShared(share, part)
		for i, x := range share {
			sum[i] += float64(x)
		}
	}
	for i := range want {
		if math.Abs(sum[i]-float64(want[i])) > 1e-4 {
			t.Fatalf("shared[%d]: shares sum to %v, Aβ is %v", i, sum[i], want[i])
		}
	}
}

func evens(n int) []int {
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

func odds(n int) []int {
	var out []int
	for i := 1; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}
