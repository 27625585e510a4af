package tpascd_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"tpascd"
	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
)

// One benchmark per reproduced figure: each regenerates the figure end to
// end (dataset generation, training, gap measurement, simulated-time
// accounting) at the Quick experiment scale. Run the Default scale through
// cmd/repro for the full reproduction recorded in EXPERIMENTS.md.

func benchFigure(b *testing.B, id string) {
	b.Helper()
	scale := tpascd.QuickExperimentScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs, err := tpascd.RunFigure(id, scale)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 {
			b.Fatal("no figures produced")
		}
	}
}

func BenchmarkFig1PrimalSingleDevice(b *testing.B)  { benchFigure(b, "1") }
func BenchmarkFig2DualSingleDevice(b *testing.B)    { benchFigure(b, "2") }
func BenchmarkFig3DistributedScaling(b *testing.B)  { benchFigure(b, "3") }
func BenchmarkFig4AdaptiveAggregation(b *testing.B) { benchFigure(b, "4") }
func BenchmarkFig5GammaEvolution(b *testing.B)      { benchFigure(b, "5") }
func BenchmarkFig6TimeToEpsilon(b *testing.B)       { benchFigure(b, "6") }
func BenchmarkFig8GPUClusters(b *testing.B)         { benchFigure(b, "8") }
func BenchmarkFig9Breakdown(b *testing.B)           { benchFigure(b, "9") }
func BenchmarkFig10LargeScale(b *testing.B)         { benchFigure(b, "10") }

// Ablation benches for the design choices called out in DESIGN.md §6.

// BenchmarkAblationBlockSize sweeps the TPA-SCD threads-per-block: deeper
// reductions per block vs more blocks in flight.
func BenchmarkAblationBlockSize(b *testing.B) {
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: 2048, M: 1024, AvgNNZPerRow: 24, Skew: 1, NoiseRate: 0.05, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	for _, bs := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("block%d", bs), func(b *testing.B) {
			s, err := tpascd.NewGPUSolver(p, tpascd.Dual, tpascd.M4000, bs, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunEpoch()
			}
			b.ReportMetric(s.EpochSeconds()*1e3, "simulated-ms/epoch")
		})
	}
}

// BenchmarkAblationAggregation compares fixed-γ strategies against the
// adaptive optimum at K=8 by epochs needed to a fixed gap.
func BenchmarkAblationAggregation(b *testing.B) {
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: 2048, M: 1024, AvgNNZPerRow: 24, Skew: 1, NoiseRate: 0.05, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	for _, agg := range []tpascd.Aggregation{tpascd.Averaging, tpascd.Adaptive} {
		b.Run(agg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tpascd.ClusterConfig{Aggregation: agg, Link: tpascd.Link10GbE}
				c, err := tpascd.NewCPUCluster(p, tpascd.Primal, 8, cfg, 5)
				if err != nil {
					b.Fatal(err)
				}
				epochs := 0
				for e := 0; e < 400; e++ {
					if _, err := c.RunEpoch(); err != nil {
						b.Fatal(err)
					}
					epochs++
					gap, err := c.Gap()
					if err != nil {
						b.Fatal(err)
					}
					if gap <= 1e-3 {
						break
					}
				}
				c.Close()
				b.ReportMetric(float64(epochs), "epochs-to-1e-3")
			}
		})
	}
}

// Engine dispatch guard: the unified coordinate-descent engine drives every
// solver family through the Loss interface. These benches pit the engine's
// sequential epoch driver against a hand-inlined copy of the pre-engine
// direct loop on the webspam-like defaults, so `go test -bench
// 'SequentialEpoch'` exposes any interface-dispatch regression. The guard
// test below enforces a loose ceiling; the expected overhead is within a few
// percent because the hot inner loops (dot product, scatter update) live
// behind one CoordNZ call per coordinate, not one call per non-zero.

func benchGuardProblem(b testing.TB) *ridge.Problem {
	b.Helper()
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamDefaults())
	if err != nil {
		b.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// directPrimalEpoch is the pre-engine sequential primal SCD epoch, inlined
// against the ridge problem with no interface in sight.
func directPrimalEpoch(p *ridge.Problem, model, shared []float32, perm []int) {
	nl := float64(p.N) * p.Lambda
	cols, norms := p.ACols(), p.ColNormsSq()
	for _, c := range perm {
		idx, val := cols.Col(c)
		var dp float64
		for k := range idx {
			i := idx[k]
			dp += float64(val[k]) * (float64(p.Y[i]) - float64(shared[i]))
		}
		d := float32((dp - nl*float64(model[c])) / (norms[c] + nl))
		if d == 0 {
			continue
		}
		model[c] += d
		for k := range idx {
			shared[idx[k]] += val[k] * d
		}
	}
}

func BenchmarkDirectSequentialEpoch(b *testing.B) {
	p := benchGuardProblem(b)
	model := make([]float32, p.M)
	shared := make([]float32, p.N)
	r := rng.New(1)
	var perm []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perm = r.Perm(p.M, perm)
		directPrimalEpoch(p, model, shared, perm)
	}
}

func BenchmarkEngineSequentialEpoch(b *testing.B) {
	p := benchGuardProblem(b)
	s := engine.NewSequential(ridge.NewLoss(p, perfmodel.Primal), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
}

// TestEngineDispatchOverhead fails if the engine's epoch driver is far
// slower than the direct loop. The bound is deliberately loose (2×, median
// of several runs) so shared CI machines do not flake; the benchmarks above
// give the precise number, which should be within a few percent.
func TestEngineDispatchOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	p := benchGuardProblem(t)

	const warmup, runs, epochsPerRun = 2, 9, 3
	median := func(run func()) time.Duration {
		for i := 0; i < warmup; i++ {
			run()
		}
		times := make([]time.Duration, runs)
		for i := range times {
			start := time.Now()
			run()
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[runs/2]
	}

	model := make([]float32, p.M)
	shared := make([]float32, p.N)
	r := rng.New(1)
	var perm []int
	direct := median(func() {
		for e := 0; e < epochsPerRun; e++ {
			perm = r.Perm(p.M, perm)
			directPrimalEpoch(p, model, shared, perm)
		}
	})

	s := engine.NewSequential(ridge.NewLoss(p, perfmodel.Primal), 1)
	viaEngine := median(func() {
		for e := 0; e < epochsPerRun; e++ {
			s.RunEpoch()
		}
	})

	t.Logf("direct %v, engine %v per %d epochs (%.2fx)",
		direct, viaEngine, epochsPerRun, float64(viaEngine)/float64(direct))
	if viaEngine > 2*direct {
		t.Fatalf("engine epoch driver %v more than 2x slower than direct loop %v", viaEngine, direct)
	}
}

// BenchmarkAblationPartitioning compares random vs contiguous feature
// partitioning (correlated columns land on one worker under contiguous).
func BenchmarkAblationPartitioning(b *testing.B) {
	// Exercised through the public partition helpers.
	for _, mode := range []string{"random"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts := tpascd.PartitionRandom(100000, 8, uint64(i))
				if len(parts) != 8 {
					b.Fatal("bad partition")
				}
			}
		})
	}
}
