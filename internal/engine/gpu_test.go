package engine_test

import (
	"testing"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

func newGPU(t testing.TB, p *ridge.Problem, form perfmodel.Form, profile perfmodel.GPUProfile, blockSize int, seed uint64) *engine.GPU {
	t.Helper()
	dev := gpusim.NewDevice(profile)
	s, err := engine.NewGPU(ridge.NewLoss(p, form), dev, blockSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGPUPrimalConverges(t *testing.T) {
	p := testProblem(t, 1, 300, 150, 8, 0.01)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 42)
	defer s.Close()
	runEpochs(s, 50)
	if g := s.Gap(); g > 1e-5 {
		t.Fatalf("primal gap after 50 epochs = %v", g)
	}
}

func TestGPUDualConverges(t *testing.T) {
	p := testProblem(t, 2, 250, 150, 8, 0.01)
	s := newGPU(t, p, perfmodel.Dual, perfmodel.GPUTitanX, 64, 42)
	defer s.Close()
	runEpochs(s, 40)
	if g := s.Gap(); g > 1e-5 {
		t.Fatalf("dual gap after 40 epochs = %v", g)
	}
}

// The paper's key single-device claim: TPA-SCD converges per epoch like the
// sequential algorithm (atomic updates keep model and shared vector
// consistent). Compare gap trajectories.
func TestGPUConvergencePerEpochMatchesSequential(t *testing.T) {
	p := testProblem(t, 3, 400, 200, 10, 0.005)
	gpu := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 7)
	defer gpu.Close()
	seq := newSeq(p, perfmodel.Primal, 7)
	for e := 0; e < 25; e++ {
		gpu.RunEpoch()
		seq.RunEpoch()
	}
	gg, gs := gpu.Gap(), seq.Gap()
	if gg > 100*gs+1e-8 {
		t.Fatalf("TPA-SCD per-epoch convergence %v much worse than sequential %v", gg, gs)
	}
}

// Shared vector must remain consistent with the model (unlike wild): after
// training, recomputing Aβ from the model matches the device shared vector.
func TestGPUSharedVectorConsistency(t *testing.T) {
	p := testProblem(t, 4, 200, 100, 8, 0.01)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 3)
	defer s.Close()
	runEpochs(s, 10)
	fresh := make([]float32, p.N)
	p.A.MulVec(fresh, s.Model())
	var drift float64
	for i := range fresh {
		d := float64(fresh[i] - s.SharedVector()[i])
		drift += d * d
	}
	if drift > 1e-6 {
		t.Fatalf("shared vector drift = %v", drift)
	}
}

func TestGPURejectsBadBlockSize(t *testing.T) {
	p := testProblem(t, 5, 50, 30, 4, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 63, 1); err == nil {
		t.Fatal("non-power-of-two block size accepted")
	}
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 0, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestGPUOutOfMemory(t *testing.T) {
	p := testProblem(t, 6, 100, 60, 5, 0.1)
	profile := perfmodel.GPUM4000
	profile.MemBytes = 100 // absurdly small
	dev := gpusim.NewDevice(profile)
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 64, 1); err == nil {
		t.Fatal("solver fit into 100 bytes of device memory")
	}
	if dev.Allocated() != 0 {
		t.Fatalf("failed construction leaked %d bytes", dev.Allocated())
	}
}

func TestGPUCloseReleasesMemory(t *testing.T) {
	p := testProblem(t, 7, 100, 60, 5, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	s, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Allocated() == 0 {
		t.Fatal("nothing allocated")
	}
	s.Close()
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("Close leaked %d bytes", got)
	}
}

func TestGPUEpochSecondsPositiveAndFasterOnTitanX(t *testing.T) {
	p := testProblem(t, 10, 200, 100, 8, 0.01)
	a := newGPU(t, p, perfmodel.Dual, perfmodel.GPUM4000, 64, 1)
	defer a.Close()
	b := newGPU(t, p, perfmodel.Dual, perfmodel.GPUTitanX, 64, 1)
	defer b.Close()
	if a.EpochSeconds() <= 0 {
		t.Fatal("non-positive epoch time")
	}
	if b.EpochSeconds() >= a.EpochSeconds() {
		t.Fatalf("Titan X (%v) not faster than M4000 (%v)", b.EpochSeconds(), a.EpochSeconds())
	}
}

func TestGPUSolverName(t *testing.T) {
	p := testProblem(t, 12, 40, 20, 3, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUTitanX, 32, 1)
	defer s.Close()
	if s.Name() != "TPA-SCD (Titan X)" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestGPUEpochWorkAndStats(t *testing.T) {
	p := testProblem(t, 13, 80, 40, 5, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 1)
	defer s.Close()
	nnz, coordsN := s.EpochWork()
	if nnz != int64(p.A.NNZ()) || coordsN != int64(p.M) {
		t.Fatalf("EpochWork = (%d,%d), want (%d,%d)", nnz, coordsN, p.A.NNZ(), p.M)
	}
	s.RunEpoch()
	stats := s.TotalStats()
	if stats.Blocks != int64(p.M) {
		t.Fatalf("blocks = %d, want %d", stats.Blocks, p.M)
	}
	// Each coordinate's nnz is visited twice (dot product + write-back);
	// one atomic per nnz in write-back plus one model Write per coordinate.
	if stats.Elements != 2*nnz || stats.Atomics != nnz+coordsN {
		t.Fatalf("kernel stats = %+v, want %d elements and %d atomics", stats, 2*nnz, nnz+coordsN)
	}
}

// Only the shared vector crosses PCIe between the epochs of a distributed
// run; the staging calls must account modeled time and move the data
// intact.
func TestGPUSharedStaging(t *testing.T) {
	p := testProblem(t, 8, 100, 60, 5, 0.1)
	s := newGPU(t, p, perfmodel.Dual, perfmodel.GPUM4000, 32, 1)
	defer s.Close()
	host := make([]float32, p.M)
	for i := range host {
		host[i] = float32(i)
	}
	up := s.UploadShared(host)
	for i := range host {
		host[i] = 0
	}
	down := s.DownloadShared(host)
	if up <= 0 || down <= 0 {
		t.Fatalf("PCIe times not positive: %v %v", up, down)
	}
	for i := range host {
		if host[i] != float32(i) {
			t.Fatalf("staging corrupted element %d", i)
		}
	}
}

func TestGPUSetModelRoundTrip(t *testing.T) {
	p := testProblem(t, 11, 60, 30, 4, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 1)
	defer s.Close()
	m := make([]float32, p.M)
	for i := range m {
		m[i] = float32(i) * 0.5
	}
	s.SetModel(m)
	got := make([]float32, p.M)
	s.ReadModel(got)
	for i := range m {
		if got[i] != m[i] || s.Model()[i] != m[i] {
			t.Fatalf("SetModel/ReadModel mismatch at %d", i)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { s.ReadModel(got) }); allocs != 0 {
		t.Fatalf("ReadModel allocates %v times", allocs)
	}
}

func BenchmarkGPUEpoch(b *testing.B) {
	p := testProblem(b, 1, 2048, 1024, 16, 0.001)
	s := newGPU(b, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 1)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}
