package dist

import (
	"math"
	"testing"

	"tpascd/internal/coords"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

// A local solver over the whole-problem view is the engine's driver over
// the ridge loss: same permutation stream, same floats, in the caller's
// slices instead of the solver's own. Bitwise, not within a tolerance —
// the σ′ = 1 step of the view-backed loss is the exact step.
func TestCPULocalBitwiseMatchesEngine(t *testing.T) {
	p := testProblem(t, 21, 160, 90, 7, 0.01)
	for _, spec := range []engine.DriverSpec{
		{Name: engine.DriverSequential, Seed: 9},
		{Name: engine.DriverSyscd, Threads: 1, Seed: 9},
	} {
		for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
			view := coords.FromProblem(p, form)
			local, err := NewCPULocal(view, spec, perfmodel.CPUSequential)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := engine.NewSolver(ridge.NewLoss(p, form), spec)
			if err != nil {
				t.Fatal(err)
			}
			model := make([]float32, view.Num)
			shared := make([]float32, view.SharedLen)
			for e := 1; e <= 5; e++ {
				local.Epoch(model, shared)
				ref.RunEpoch()
				requireSameBits(t, spec.Name, form, e, "model", model, ref.Model())
				requireSameBits(t, spec.Name, form, e, "shared", shared, ref.SharedVector())
			}
		}
	}
}

func requireSameBits(t *testing.T, driver string, form perfmodel.Form, epoch int, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %v epoch %d: %s[%d] = %x, engine has %x", driver, form, epoch, what, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// Config.SigmaPrime reaches every CPU local, however the group was
// partitioned: an explicit partition equal to the default random one must
// reproduce the default group's CoCoA+ run bit for bit.
func TestSigmaPrimeAppliesToExplicitPartition(t *testing.T) {
	const (
		k    = 4
		seed = 53
	)
	p := testProblem(t, 17, 150, 90, 6, 0.01)
	cfg := Config{Aggregation: Adding, SigmaPrime: k, Link: perfmodel.Link10GbE}
	run := func(g *Group, err error) uint64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for e := 0; e < 10; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(gap)
	}
	want := run(NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, seed))
	got := run(NewCPUGroupWithPartition(p, perfmodel.Primal, PartitionRandom(p.M, k, seed), engine.DriverSpec{},
		perfmodel.CPUSequential, cfg, seed))
	if got != want {
		t.Fatalf("explicit-partition gap bits %x, default-partition %x: SigmaPrime not applied", got, want)
	}
}

// A device driver cannot run in place on host vectors: NewCPULocal rejects
// it even when the spec is complete, and releases what its construction
// reserved on the device.
func TestCPULocalRejectsDeviceDriverWithoutLeak(t *testing.T) {
	p := testProblem(t, 15, 40, 20, 4, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	_, err := NewCPULocal(coords.FromProblem(p, perfmodel.Primal),
		engine.DriverSpec{Name: engine.DriverGPU, Device: dev}, perfmodel.CPUSequential)
	if err == nil {
		t.Fatal("tpa-scd accepted as a CPU local")
	}
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("rejected device driver leaked %d bytes", got)
	}
}

// Config.SigmaPrime reaches device locals too: damped steps divide by
// σ′‖a_c‖² + Nλ, so a CoCoA+ GPU group's first-round model step is several
// times shorter than the undamped one. A norm ratio, not bits — the
// simulator's thread blocks race.
func TestSigmaPrimeAppliesToGPUGroup(t *testing.T) {
	p := testProblem(t, 17, 150, 90, 6, 0.01)
	firstStep := func(sigma float64) float64 {
		t.Helper()
		cfg := Config{Aggregation: Adding, SigmaPrime: sigma, Link: perfmodel.Link10GbE}
		g, err := NewGPUGroup(p, perfmodel.Primal, 2, perfmodel.GPUM4000, 32, cfg, 53)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		var sq float64
		for _, w := range g.Workers {
			for _, b := range w.Model() {
				sq += float64(b) * float64(b)
			}
		}
		return math.Sqrt(sq)
	}
	undamped, damped := firstStep(1), firstStep(8)
	if damped > 0.5*undamped {
		t.Fatalf("first-round step norm %v under σ′ = 8, %v under σ′ = 1: SigmaPrime not applied", damped, undamped)
	}
}
