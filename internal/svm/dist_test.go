package svm

import (
	"math"
	"sync"
	"testing"

	"tpascd/internal/cluster"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
)

// svmCluster is K ranks of distributed SDCA in one process: the examples
// partitioned at random by seed, each rank a dist.Worker over its
// Partition with a sequential local seeded seed+rank.
type svmCluster struct {
	parts   dist.Partition
	locals  []*dist.CPULocal
	workers []*dist.Worker
	comms   []cluster.Comm
}

func newSVMCluster(t *testing.T, p *Problem, k int, agg dist.Aggregation, seed uint64) *svmCluster {
	t.Helper()
	comms, err := cluster.InProc(k)
	if err != nil {
		t.Fatal(err)
	}
	c := &svmCluster{parts: dist.PartitionRandom(p.N, k, seed), comms: comms}
	for r := 0; r < k; r++ {
		localY := make([]float32, len(c.parts[r]))
		for i, id := range c.parts[r] {
			localY[i] = p.Y[id]
		}
		part, err := NewPartition(p.A.SelectRows(c.parts[r]), localY, p.Lambda, p.N)
		if err != nil {
			t.Fatal(err)
		}
		local, err := dist.NewLocal(part, engine.DriverSpec{Seed: seed + uint64(r)}, perfmodel.CPUSequential)
		if err != nil {
			t.Fatal(err)
		}
		w, err := dist.NewWorker(comms[r], local, part, dist.Config{Aggregation: agg})
		if err != nil {
			t.Fatal(err)
		}
		c.locals = append(c.locals, local.(*dist.CPULocal))
		c.workers = append(c.workers, w)
	}
	return c
}

func (c *svmCluster) close() {
	for _, comm := range c.comms {
		comm.Close()
	}
}

// each runs fn once per rank, concurrently, and fails the test on the
// first error.
func (c *svmCluster) each(t *testing.T, fn func(r int, w *dist.Worker) error) {
	t.Helper()
	var wg sync.WaitGroup
	for r, w := range c.workers {
		wg.Add(1)
		go func(r int, w *dist.Worker) {
			defer wg.Done()
			if err := fn(r, w); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r, w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// run advances every rank n synchronous rounds.
func (c *svmCluster) run(t *testing.T, n int) {
	t.Helper()
	c.each(t, func(r int, w *dist.Worker) error {
		for e := 0; e < n; e++ {
			if _, err := w.RunEpoch(); err != nil {
				return err
			}
		}
		return nil
	})
}

// gap evaluates the collective gap and checks every rank saw the same one.
func (c *svmCluster) gap(t *testing.T) float64 {
	t.Helper()
	gaps := make([]float64, len(c.workers))
	c.each(t, func(r int, w *dist.Worker) (err error) {
		gaps[r], err = w.Gap()
		return err
	})
	for r := range gaps {
		if gaps[r] != gaps[0] {
			t.Fatalf("ranks disagree on the gap: %v vs %v", gaps[r], gaps[0])
		}
	}
	return gaps[0]
}

// alpha assembles the global dual variables from the ranks' local models.
func (c *svmCluster) alpha(n int) []float32 {
	global := make([]float32, n)
	for r, w := range c.workers {
		for li, gi := range c.parts[r] {
			global[gi] = w.Model()[li]
		}
	}
	return global
}

// runSVMCluster trains K ranks for the given rounds and returns the
// collective gap and the last γ.
func runSVMCluster(t *testing.T, p *Problem, k, epochs int, agg dist.Aggregation, seed uint64) (float64, float64) {
	t.Helper()
	c := newSVMCluster(t, p, k, agg, seed)
	defer c.close()
	c.run(t, epochs)
	return c.gap(t), c.workers[0].Gamma()
}

// One rank with averaging (γ = 1) is the sequential algorithm: the local
// pass is the engine's own over the same loss (global N = N) and
// permutation stream. The round's aggregation v ← prev + γ·(v − prev) is
// not the identity in float32 even at γ = 1, so the sequential reference
// re-applies that rounding between its epochs; with it the dual variables
// agree bit for bit.
func TestDistSVMSingleWorkerMatchesSequential(t *testing.T) {
	p := separableProblem(t, 30, 200, 60, 8, 0.01)
	c := newSVMCluster(t, p, 1, dist.Averaging, 5)
	defer c.close()
	seq := NewSequential(p, 5)
	alpha, w := seq.Alpha(), seq.Weights()
	prevAlpha, prevW := make([]float32, p.N), make([]float32, p.M)
	for e := 1; e <= 5; e++ {
		c.run(t, 1)
		copy(prevAlpha, alpha)
		copy(prevW, w)
		seq.RunEpoch()
		for i := range alpha {
			alpha[i] = prevAlpha[i] + (alpha[i] - prevAlpha[i])
		}
		for j := range w {
			w[j] = prevW[j] + (w[j] - prevW[j])
		}
		got := c.workers[0].Model()
		for i := range alpha {
			if math.Float32bits(got[i]) != math.Float32bits(alpha[i]) {
				t.Fatalf("epoch %d: α[%d] = %x, sequential SDCA has %x", e, i,
					math.Float32bits(got[i]), math.Float32bits(alpha[i]))
			}
		}
	}
	if got, want := c.gap(t), seq.Gap(); math.Abs(got-want) > 1e-5*(1+want) {
		t.Fatalf("K=1 collective gap %v, sequential %v", got, want)
	}
}

func TestDistSVMConvergesK4(t *testing.T) {
	p := separableProblem(t, 31, 300, 60, 8, 0.01)
	gap, _ := runSVMCluster(t, p, 4, 80, dist.Averaging, 7)
	if gap > 1e-2 {
		t.Fatalf("distributed SVM gap after 80 epochs = %v", gap)
	}
}

func TestDistSVMAdaptiveBeatsAveraging(t *testing.T) {
	p := separableProblem(t, 32, 300, 60, 8, 0.01)
	const epochs = 40
	avg, _ := runSVMCluster(t, p, 8, epochs, dist.Averaging, 9)
	adp, gamma := runSVMCluster(t, p, 8, epochs, dist.Adaptive, 9)
	if adp >= avg {
		t.Fatalf("adaptive gap %v not better than averaging %v", adp, avg)
	}
	if gamma <= 1.0/8 {
		t.Fatalf("adaptive γ=%v not above 1/K", gamma)
	}
}

func TestDistSVMIteratesStayFeasible(t *testing.T) {
	p := separableProblem(t, 33, 150, 40, 6, 0.01)
	c := newSVMCluster(t, p, 2, dist.Adaptive, 3)
	defer c.close()
	for e := 0; e < 20; e++ {
		c.run(t, 1)
		for r, w := range c.workers {
			if v := Box(w.Model()); v > 1e-6 {
				t.Fatalf("epoch %d rank %d: box violation %v (γ=%v)", e, r, v, w.Gamma())
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	p := separableProblem(t, 34, 20, 10, 3, 0.1)
	if _, err := NewPartition(p.A, p.Y[:3], p.Lambda, p.N); err == nil {
		t.Fatal("label mismatch accepted")
	}
	if _, err := NewPartition(p.A, p.Y, 0, p.N); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	bad := make([]float32, p.N)
	if _, err := NewPartition(p.A, bad, p.Lambda, p.N); err == nil {
		t.Fatal("zero labels accepted")
	}
	if _, err := NewPartition(p.A, p.Y, p.Lambda, p.N-1); err == nil {
		t.Fatal("global example count below the partition's accepted")
	}
}

// The SVM dual has no σ′-damped step: a CoCoA+ configuration is an error
// at construction, not a silently undamped run.
func TestDistSVMRejectsSigmaPrime(t *testing.T) {
	p := separableProblem(t, 34, 20, 10, 3, 0.1)
	part, err := NewPartition(p.A, p.Y, p.Lambda, p.N)
	if err != nil {
		t.Fatal(err)
	}
	local, err := dist.NewLocal(part, engine.DriverSpec{}, perfmodel.CPUSequential)
	if err != nil {
		t.Fatal(err)
	}
	comms, _ := cluster.InProc(1)
	defer comms[0].Close()
	if _, err := dist.NewWorker(comms[0], local, part, dist.Config{Aggregation: dist.Adding, SigmaPrime: 2}); err == nil {
		t.Fatal("σ′ = 2 accepted for the SVM dual")
	}
}

func TestDistSVMGapMatchesCentralized(t *testing.T) {
	p := separableProblem(t, 35, 120, 40, 6, 0.05)
	c := newSVMCluster(t, p, 3, dist.Averaging, 11)
	defer c.close()
	c.run(t, 10)
	gap := c.gap(t)
	central := p.Gap(c.alpha(p.N))
	if math.Abs(gap-central) > 1e-5*(1+central) {
		t.Fatalf("distributed gap %v vs centralized %v", gap, central)
	}
}

// A restarted SVM run continues bit for bit. ResumeFrom rebuilds the shared
// vector from the models (the drift repair), so the reference is a run
// that re-bases at the same round without restarting: 5 rounds, Snapshot,
// ResumeFrom on the live workers, 5 more. The restarted run is fresh
// workers that fast-forward their permutation streams (SkipEpochs), resume
// from the snapshots and finish. Against 10 uninterrupted rounds both
// differ only by that re-basing.
func TestDistSVMResumeMatchesUninterrupted(t *testing.T) {
	const k, mid, total, seed = 2, 5, 10, 17
	p := separableProblem(t, 36, 160, 50, 6, 0.01)

	ref := newSVMCluster(t, p, k, dist.Adaptive, seed)
	defer ref.close()
	ref.run(t, total)
	gapRef := ref.gap(t)

	live := newSVMCluster(t, p, k, dist.Adaptive, seed)
	defer live.close()
	live.run(t, mid)
	models := make([][]float32, k)
	for r, w := range live.workers {
		var epoch int
		if models[r], epoch = w.Snapshot(); epoch != mid {
			t.Fatalf("rank %d snapshot epoch %d, want %d", r, epoch, mid)
		}
	}
	live.each(t, func(r int, w *dist.Worker) error { return w.ResumeFrom(models[r], mid) })
	live.run(t, total-mid)

	restarted := newSVMCluster(t, p, k, dist.Adaptive, seed)
	defer restarted.close()
	restarted.each(t, func(r int, w *dist.Worker) error {
		restarted.locals[r].SkipEpochs(mid)
		return w.ResumeFrom(models[r], mid)
	})
	restarted.run(t, total-mid)

	gap := restarted.gap(t)
	if want := live.gap(t); math.Float64bits(gap) != math.Float64bits(want) {
		t.Fatalf("restarted gap %x, live re-based run %x", math.Float64bits(gap), math.Float64bits(want))
	}
	got, want := restarted.alpha(p.N), live.alpha(p.N)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("α[%d] = %x after restart, live re-based run %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	if diff := math.Abs(gap - gapRef); diff > 1e-3*gapRef {
		t.Fatalf("resumed gap %v differs from uninterrupted %v by %v", gap, gapRef, diff)
	}
}
