package experiments

import (
	"fmt"

	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/sgd"
	"tpascd/internal/trace"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// §6 calls out. Each is registered alongside the paper figures in
// cmd/repro ("-fig gamma", "-fig link", ...).

// AblationIDs lists the ablation experiments.
func AblationIDs() []string { return []string{"gamma", "partition", "link", "blocksize", "sgd"} }

func init() {
	// Wire the ablations into the shared registry used by Run.
	extraRunners["gamma"] = AblationGamma
	extraRunners["partition"] = AblationPartition
	extraRunners["link"] = AblationLink
	extraRunners["blocksize"] = AblationBlockSize
	extraRunners["sgd"] = AblationSGD
}

// AblationGamma sweeps fixed aggregation parameters against the adaptive
// optimum at K=8 (primal): γ=1/K (averaging), γ=1 (adding) and the
// closed-form γ*.
func AblationGamma(s Scale) ([]trace.Figure, error) {
	p, err := s.webspamProblem()
	if err != nil {
		return nil, err
	}
	const k = 8
	fig := trace.Figure{
		Name:   "ablation-gamma",
		Title:  fmt.Sprintf("Aggregation strategies at K=%d (primal)", k),
		XLabel: "epochs",
		YLabel: "duality gap",
	}
	sc := webspamScaling(p, perfmodel.Primal)
	for _, c := range []struct {
		agg   dist.Aggregation
		sigma float64
		label string
	}{
		{dist.Averaging, 1, "γ = 1/K (averaging)"},
		{dist.Adding, 1, "γ = 1 (adding, undamped)"},
		{dist.Adding, k, "γ = 1, σ′ = K (CoCoA+)"},
		{dist.Adaptive, 1, "γ* (adaptive)"},
	} {
		cfg := dist.Config{
			Aggregation:     c.agg,
			SigmaPrime:      c.sigma,
			Link:            sc.link(perfmodel.Link10GbE),
			HostFlopsPerSec: sc.hostFlops(),
		}
		g, err := dist.NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, sc.cpu(perfmodel.CPUSequential), cfg, s.Seed)
		if err != nil {
			return nil, err
		}
		series, _, err := runGroup(g, c.label, s.DistPrimalEpochs/2, 0)
		g.Close()
		if err != nil {
			return nil, err
		}
		fig.Add(series)
	}
	fig.Remarks = append(fig.Remarks,
		"undamped adding (γ=1) overshoots on correlated partitions; σ′=K damping (CoCoA+) repairs it; adaptive γ* dominates the fixed choices")
	return []trace.Figure{fig}, nil
}

// AblationPartition compares random against contiguous feature
// partitioning for the primal distributed solver — the "partition the
// coordinates in an intelligent way" discussion at the end of Section IV
// (reference [22]).
func AblationPartition(s Scale) ([]trace.Figure, error) {
	p, err := s.webspamProblem()
	if err != nil {
		return nil, err
	}
	const k = 8
	fig := trace.Figure{
		Name:   "ablation-partition",
		Title:  fmt.Sprintf("Feature partitioning strategies at K=%d (primal)", k),
		XLabel: "epochs",
		YLabel: "duality gap",
	}
	sc := webspamScaling(p, perfmodel.Primal)
	cfg := dist.Config{Aggregation: dist.Adaptive, Link: sc.link(perfmodel.Link10GbE), HostFlopsPerSec: sc.hostFlops()}
	for _, strat := range []struct {
		name  string
		parts dist.Partition
	}{
		{"random", dist.PartitionRandom(p.M, k, s.Seed)},
		{"contiguous", dist.PartitionContiguous(p.M, k)},
	} {
		g, err := groupFromPartition(p, perfmodel.Primal, strat.parts, sc, cfg, s.Seed)
		if err != nil {
			return nil, err
		}
		series, _, err := runGroup(g, strat.name, s.DistPrimalEpochs/2, 0)
		g.Close()
		if err != nil {
			return nil, err
		}
		fig.Add(series)
	}
	return []trace.Figure{fig}, nil
}

// groupFromPartition builds a CPU group over an explicit partition (the
// standard constructors always partition randomly).
func groupFromPartition(p *ridge.Problem, form perfmodel.Form, parts dist.Partition, sc scaling, cfg dist.Config, seed uint64) (*dist.Group, error) {
	return dist.NewCPUGroupWithPartition(p, form, parts, engine.DriverSpec{}, sc.cpu(perfmodel.CPUSequential), cfg, seed)
}

// AblationLink reruns the Fig. 9 breakdown at K=8 over 10GbE vs 100GbE —
// the paper: "these results indicate that the use of a 100Gbit ethernet
// network interface would improve the scaling behavior further".
func AblationLink(s Scale) ([]trace.Figure, error) {
	p, err := s.webspamProblem()
	if err != nil {
		return nil, err
	}
	sc := webspamScaling(p, perfmodel.Dual)
	fig := trace.Figure{
		Name:   "ablation-link",
		Kind:   trace.PerWorker,
		Title:  fmt.Sprintf("Network share at K=8 to gap %.0e: 10GbE vs 100GbE (M4000 cluster, dual)", s.Fig9Target),
		XLabel: "link",
		YLabel: "time (s, simulated)",
	}
	for _, link := range []perfmodel.Link{perfmodel.Link10GbE, perfmodel.Link100GbE} {
		c := gpuCluster{perfmodel.GPUM4000, link, link.Name}
		g, err := gpuGroup(p, perfmodel.Dual, 8, c, sc, s.BlockSize, dist.Adaptive, s.Seed)
		if err != nil {
			return nil, err
		}
		_, bd, err := runGroup(g, "", s.GPUClusterEpochs*4, s.Fig9Target)
		g.Close()
		if err != nil {
			return nil, err
		}
		series := trace.Series{Label: link.Name}
		series.Append(trace.Point{Epoch: 8, Seconds: bd.Network})
		series.Append(trace.Point{Epoch: 8, Seconds: bd.Total(), Gap: s.Fig9Target})
		fig.Add(series)
	}
	fig.Remarks = append(fig.Remarks, "per series: first bar = network seconds, second bar = total seconds")
	return []trace.Figure{fig}, nil
}

// AblationBlockSize sweeps the TPA-SCD threads-per-block and reports the
// modeled epoch seconds together with the achieved gap, exposing the
// reduction-depth vs occupancy trade-off of Algorithm 2.
func AblationBlockSize(s Scale) ([]trace.Figure, error) {
	p, err := s.webspamProblem()
	if err != nil {
		return nil, err
	}
	sc := webspamScaling(p, perfmodel.Dual)
	fig := trace.Figure{
		Name:   "ablation-blocksize",
		Kind:   trace.PerWorker,
		Title:  "TPA-SCD block size sweep (M4000, dual)",
		XLabel: "threads per block (Epoch column)",
		YLabel: "modeled seconds per epoch",
	}
	series := trace.Series{Label: "epoch seconds"}
	for _, bs := range []int{32, 64, 128, 256, 512} {
		if err := func() error {
			solver, err := engine.NewSolver(ridge.NewLoss(p, perfmodel.Dual), engine.DriverSpec{
				Name:      engine.DriverGPU,
				Device:    gpusim.NewDevice(sc.gpu(perfmodel.GPUM4000)),
				BlockSize: bs,
				Seed:      s.Seed,
			})
			if err != nil {
				return err
			}
			gpu := solver.(*engine.GPU)
			defer gpu.Close()
			for e := 0; e < s.SingleDeviceEpochs/2; e++ {
				gpu.RunEpoch()
			}
			gap := gpu.Gap()
			series.Append(trace.Point{Epoch: bs, Seconds: gpu.EpochSeconds(), Gap: gap})
			fig.Remarks = append(fig.Remarks,
				fmt.Sprintf("block size %d: gap %.3e after %d epochs", bs, gap, s.SingleDeviceEpochs/2))
			return nil
		}(); err != nil {
			return nil, err
		}
	}
	fig.Add(series)
	fig.Remarks = append(fig.Remarks,
		"the kernel is memory-bound, so modeled epoch time is flat across block sizes; convergence is unaffected")
	return []trace.Figure{fig}, nil
}

// AblationSGD compares sequential SCD with Hogwild SGD per epoch — the
// introduction's premise that coordinate methods need no step size and
// converge faster per pass.
func AblationSGD(s Scale) ([]trace.Figure, error) {
	p, err := s.webspamProblem()
	if err != nil {
		return nil, err
	}
	fig := trace.Figure{
		Name:   "ablation-sgd",
		Title:  "SCD vs Hogwild SGD (primal form)",
		XLabel: "epochs",
		YLabel: "duality gap",
	}
	epochs := s.SingleDeviceEpochs / 2

	scdSolver := engine.NewSequential(ridge.NewLoss(p, perfmodel.Primal), s.Seed)
	series := trace.Series{Label: "SCD (exact coordinate steps)"}
	for e := 1; e <= epochs; e++ {
		scdSolver.RunEpoch()
		series.Append(trace.Point{Epoch: e, Gap: scdSolver.Gap()})
	}
	fig.Add(series)

	for _, step := range []float64{0.005, 0.02} {
		hw, err := sgd.New(p, sgd.Options{Step: step, Decay: 0.1, Threads: s.Threads, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		series := trace.Series{Label: fmt.Sprintf("Hogwild SGD η=%g (%d threads)", step, s.Threads)}
		for e := 1; e <= epochs; e++ {
			hw.RunEpoch()
			series.Append(trace.Point{Epoch: e, Gap: hw.Gap()})
		}
		fig.Add(series)
	}
	fig.Remarks = append(fig.Remarks, "SGD needs a tuned step size and still trails the exact coordinate steps")
	return []trace.Figure{fig}, nil
}
