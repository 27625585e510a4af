package engine_test

import (
	"math"
	"testing"

	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

// inPlace is the in-place mode the distributed locals use: every host
// driver has it.
type inPlace interface {
	engine.Solver
	Bind(model, shared []float32)
	SkipEpochs(n int)
}

// The drivers whose trajectories are deterministic: one goroutine, so the
// permutation stream fixes every float.
var deterministicSpecs = []engine.DriverSpec{
	{Name: engine.DriverSequential, Seed: 5},
	{Name: engine.DriverAtomic, Threads: 1, Seed: 5},
	{Name: engine.DriverWild, Threads: 1, Seed: 5},
	{Name: engine.DriverSyscd, Threads: 1, Seed: 5},
}

func newInPlace(t *testing.T, p *ridge.Problem, form perfmodel.Form, spec engine.DriverSpec) inPlace {
	t.Helper()
	s, err := engine.NewSolver(ridge.NewLoss(p, form), spec)
	if err != nil {
		t.Fatal(err)
	}
	ip, ok := s.(inPlace)
	if !ok {
		t.Fatalf("%s has no in-place mode", s.Name())
	}
	return ip
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// A bound driver trains the caller's slices — the same floats it would
// have written to its own — and allocates nothing per epoch doing so.
func TestBindRunsEpochInCallerState(t *testing.T) {
	p := testProblem(t, 31, 120, 70, 6, 0.01)
	for _, spec := range deterministicSpecs {
		for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
			own := newInPlace(t, p, form, spec)
			bound := newInPlace(t, p, form, spec)
			model := make([]float32, len(own.Model()))
			shared := make([]float32, len(own.SharedVector()))
			for e := 0; e < 4; e++ {
				own.RunEpoch()
				bound.Bind(model, shared)
				bound.RunEpoch()
			}
			if !sameBits(model, own.Model()) || !sameBits(shared, own.SharedVector()) {
				t.Fatalf("%s %v: bound state diverged from the driver's own", spec.Name, form)
			}
			if &bound.Model()[0] != &model[0] || &bound.SharedVector()[0] != &shared[0] {
				t.Fatalf("%s %v: Bind copied instead of aliasing", spec.Name, form)
			}
		}
	}
	seq := newInPlace(t, p, perfmodel.Primal, deterministicSpecs[0])
	model, shared := make([]float32, p.M), make([]float32, p.N)
	seq.Bind(model, shared)
	seq.RunEpoch() // first epoch sizes the permutation buffer
	if allocs := testing.AllocsPerRun(5, func() {
		seq.Bind(model, shared)
		seq.RunEpoch()
	}); allocs != 0 {
		t.Fatalf("bound sequential epoch allocates %v times", allocs)
	}
}

// SkipEpochs(n) leaves the permutation stream where n epochs would have:
// a fresh driver handed the state of one that ran n epochs continues
// bit for bit (checkpoint resume).
func TestSkipEpochsAlignsPermutationStream(t *testing.T) {
	const n = 3
	p := testProblem(t, 32, 120, 70, 6, 0.01)
	for _, spec := range deterministicSpecs {
		ref := newInPlace(t, p, perfmodel.Dual, spec)
		runEpochs(ref, n)
		model := append([]float32(nil), ref.Model()...)
		shared := append([]float32(nil), ref.SharedVector()...)

		resumed := newInPlace(t, p, perfmodel.Dual, spec)
		resumed.SkipEpochs(n)
		resumed.Bind(model, shared)
		for e := 0; e < 2; e++ {
			ref.RunEpoch()
			resumed.RunEpoch()
		}
		if !sameBits(model, ref.Model()) || !sameBits(shared, ref.SharedVector()) {
			t.Fatalf("%s: resumed trajectory diverged from the uninterrupted one", spec.Name)
		}
	}
}
