package dist

import (
	"errors"
	"fmt"
	"sync"

	"tpascd/internal/cluster"
	"tpascd/internal/coords"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

// Group runs a whole K-worker cluster inside one process, with the workers
// as goroutines over in-process communicators. This is how the experiment
// harness reproduces the paper's cluster results; the TCP transport is
// exercised separately (see the tcp_cluster example and the cluster tests).
type Group struct {
	Workers   []*Worker
	comms     []cluster.Comm
	closers   []func()
	closeOnce sync.Once
}

// NewCPUGroup builds a K-worker group whose local solvers run on the CPU,
// selected from the engine driver registry by spec.Name (empty =
// sequential). The coordinates (features for the primal form, examples for
// the dual) are partitioned randomly across workers; spec.Seed is ignored —
// each rank derives its permutation seed from the group seed.
func NewCPUGroup(p *ridge.Problem, form perfmodel.Form, k int, spec engine.DriverSpec,
	profile perfmodel.CPUProfile, cfg Config, seed uint64) (*Group, error) {
	return newCPUGroup(p, form, k, nil, spec, profile, cfg, seed)
}

// NewCPUGroupWithPartition is NewCPUGroup with an explicit coordinate
// partition instead of the default random one (used by the partitioning
// ablation; cf. the "intelligent partitioning" discussion closing
// Section IV of the paper).
func NewCPUGroupWithPartition(p *ridge.Problem, form perfmodel.Form, parts Partition, spec engine.DriverSpec,
	profile perfmodel.CPUProfile, cfg Config, seed uint64) (*Group, error) {
	return newCPUGroup(p, form, len(parts), parts, spec, profile, cfg, seed)
}

func newCPUGroup(p *ridge.Problem, form perfmodel.Form, k int, parts Partition, spec engine.DriverSpec,
	profile perfmodel.CPUProfile, cfg Config, seed uint64) (*Group, error) {
	return newGroup(p, form, k, parts, cfg, seed, func(rank int, view *coords.View) (Local, func(), error) {
		spec.Seed = rankSeed(seed, rank)
		l, err := NewCPULocal(view, spec, profile)
		return l, nil, err
	})
}

// NewGPUGroup builds a K-worker group whose local solvers are TPA-SCD
// drivers, each on its own simulated device (the Fig. 7 architecture:
// one GPU per worker, data resident on the device).
func NewGPUGroup(p *ridge.Problem, form perfmodel.Form, k int, gpu perfmodel.GPUProfile,
	blockSize int, cfg Config, seed uint64) (*Group, error) {
	return newGroup(p, form, k, nil, cfg, seed, func(rank int, view *coords.View) (Local, func(), error) {
		dev := gpusim.NewDevice(gpu)
		if cfg.PCIe.BytesPerSec > 0 {
			dev.PinnedLink = cfg.PCIe
			dev.PageableLink = cfg.PCIe
		}
		l, err := NewGPULocal(view, engine.DriverSpec{Device: dev, BlockSize: blockSize, Seed: rankSeed(seed, rank)})
		if err != nil {
			return nil, nil, err
		}
		return l, l.Close, nil
	})
}

// rankSeed derives a rank's permutation seed from the group seed.
func rankSeed(seed uint64, rank int) uint64 { return seed + uint64(rank)*7919 }

func newGroup(p *ridge.Problem, form perfmodel.Form, k int, parts Partition, cfg Config, seed uint64,
	makeLocal func(rank int, view *coords.View) (Local, func(), error)) (*Group, error) {
	if k < 1 {
		return nil, fmt.Errorf("dist: group size %d", k)
	}
	numCoords := p.M
	if form == perfmodel.Dual {
		numCoords = p.N
	}
	if parts == nil {
		parts = PartitionRandom(numCoords, k, seed)
	}
	if err := parts.Validate(numCoords); err != nil {
		return nil, err
	}
	comms, err := cluster.InProc(k)
	if err != nil {
		return nil, err
	}
	g := &Group{comms: comms}
	for rank := 0; rank < k; rank++ {
		if cfg.WrapComm != nil {
			g.comms[rank] = cfg.WrapComm(g.comms[rank])
		}
		view := coords.Subset(p, form, parts[rank])
		local, closer, err := makeLocal(rank, view)
		if err != nil {
			g.Close()
			return nil, err
		}
		if closer != nil {
			g.closers = append(g.closers, closer)
		}
		w, err := NewWorker(g.comms[rank], local, view, cfg)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.Workers = append(g.Workers, w)
	}
	return g, nil
}

// RunEpoch advances all workers one synchronous round and returns the
// modeled time breakdown (identical across ranks).
func (g *Group) RunEpoch() (perfmodel.Breakdown, error) {
	bds := make([]perfmodel.Breakdown, len(g.Workers))
	err := g.parallel(func(rank int, w *Worker) error {
		bd, err := w.RunEpoch()
		bds[rank] = bd
		return err
	})
	return bds[0], err
}

// Gap computes the global duality gap collectively.
func (g *Group) Gap() (float64, error) {
	gaps := make([]float64, len(g.Workers))
	err := g.parallel(func(rank int, w *Worker) error {
		gp, err := w.Gap()
		gaps[rank] = gp
		return err
	})
	return gaps[0], err
}

// Gamma returns the aggregation parameter applied in the last epoch.
func (g *Group) Gamma() float64 { return g.Workers[0].Gamma() }

// Size returns the number of workers.
func (g *Group) Size() int { return len(g.Workers) }

// Close releases communicator and device resources. It is idempotent and
// safe after an aborted round.
func (g *Group) Close() {
	g.closeComms()
	for _, f := range g.closers {
		f()
	}
}

func (g *Group) closeComms() {
	g.closeOnce.Do(func() {
		for _, c := range g.comms {
			c.Close()
		}
	})
}

// parallel runs fn on every rank concurrently. If any rank fails, the
// round is aborted: the communicators are closed so surviving ranks
// blocked in a collective unblock with ErrClosed instead of leaking
// goroutines, every rank is then collected, and the causal failure is
// returned with its rank attached (the ErrClosed fallout of the abort is
// reported only if nothing better is known).
func (g *Group) parallel(fn func(rank int, w *Worker) error) error {
	errs := make([]error, len(g.Workers))
	failed := make(chan struct{}, len(g.Workers))
	var wg sync.WaitGroup
	for rank, w := range g.Workers {
		wg.Add(1)
		go func(rank int, w *Worker) {
			defer wg.Done()
			if err := fn(rank, w); err != nil {
				errs[rank] = err
				failed <- struct{}{}
			}
		}(rank, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-failed:
		g.closeComms()
		<-done
	}
	var closedErr error
	for rank, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, cluster.ErrClosed) {
			if closedErr == nil {
				closedErr = fmt.Errorf("dist: rank %d: %w", rank, err)
			}
			continue
		}
		return fmt.Errorf("dist: rank %d: %w", rank, err)
	}
	return closedErr
}
