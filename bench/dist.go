package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tpascd/internal/cluster"
	"tpascd/internal/coords"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/obs"
	"tpascd/internal/perfmodel"
)

// distRun is one fresh K-rank CoCoA run to epsDist, as rank 0 saw it.
type distRun struct {
	rounds    int
	reached   bool
	roundMs   []float64 // rank 0's Worker.RunEpoch wall times
	gammas    []float64
	finalGaps []float64 // per rank; must agree bit for bit
}

// distStats accumulates the distributed phase.
type distStats struct {
	runs      []distRun
	computeMs []float64 // rank 0 dist.round compute_s, traced runs
	commMs    []float64 // rank 0 dist.round comm_s
	rounds    int       // all rounds, for attempted
}

// spanComm wraps a rank's communicator so every collective the dist layer
// issues is counted and, with a tracer, shows up as a cluster-layer span
// under the round that issued it. Traced runs only.
type spanComm struct {
	cluster.Comm
	tr     *tracer
	parent int // set by the rank's goroutine before each round
	calls  int64
}

func (c *spanComm) wrap(name string, fn func() error) error {
	c.calls++
	id := c.tr.start(c.parent, "cluster", name)
	err := fn()
	c.tr.end(id)
	return err
}

func (c *spanComm) Broadcast(buf []float32, root int) error {
	return c.wrap("Broadcast", func() error { return c.Comm.Broadcast(buf, root) })
}

func (c *spanComm) Reduce(in, out []float32, root int) error {
	return c.wrap("Reduce", func() error { return c.Comm.Reduce(in, out, root) })
}

func (c *spanComm) Allreduce(in, out []float32) error {
	return c.wrap("Allreduce", func() error { return c.Comm.Allreduce(in, out) })
}

func (c *spanComm) AllreduceScalars(vals []float64) (out []float64, err error) {
	err = c.wrap("AllreduceScalars", func() error {
		out, err = c.Comm.AllreduceScalars(vals)
		return err
	})
	return out, err
}

// roundSink collects the compute/communication split the dist layer
// already reports in its dist.round spans (the existing dist.Config.Trace
// hook, read here and not altered).
type roundSink struct {
	mu        sync.Mutex
	computeMs []float64
	commMs    []float64
}

func (s *roundSink) Emit(ev obs.Event) {
	if ev.Name != "dist.round" {
		return
	}
	if rank, _ := ev.Field("rank"); rank != 0 {
		return
	}
	compute, _ := ev.Field("compute_s")
	comm, _ := ev.Field("comm_s")
	s.mu.Lock()
	s.computeMs = append(s.computeMs, compute*1e3)
	s.commMs = append(s.commMs, comm*1e3)
	s.mu.Unlock()
}

// runRanks runs fn once per rank, each on its own goroutine, and returns
// the first error.
func runRanks(k int, fn func(rank int) error) error {
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// newWorker builds a fresh rank at the zero model: sequential local
// solver, adaptive aggregation (Algorithm 4).
func newWorker(comm cluster.Comm, view *coords.View, seed uint64, trace *obs.Tracer) (*dist.Worker, error) {
	local, err := dist.NewCPULocal(view, engine.DriverSpec{Name: engine.DriverSequential, Seed: seed}, perfmodel.CPUSequential)
	if err != nil {
		return nil, err
	}
	return dist.NewWorker(comm, local, view, dist.Config{Aggregation: dist.Adaptive, Trace: trace})
}

// distToGap runs one fresh K-rank CoCoA to epsDist over the ranks'
// persistent TCP communicators. The clock covers rank 0's Worker.RunEpoch;
// the collective Worker.Gap after each round is off the clock. Every rank
// sees the same gap, so every rank stops at the same round.
func (e *env) distToGap(parent int, st *distStats) (distRun, error) {
	const capRounds = 400
	run := distRun{finalGaps: make([]float64, workers)}
	var sink *roundSink
	var roundTrace *obs.Tracer
	if e.tr != nil {
		sink = &roundSink{}
		roundTrace = obs.NewTracer(sink)
	}
	err := runRanks(workers, func(rank int) error {
		comm := e.comms[rank]
		var sc *spanComm
		if e.tr != nil && rank == 0 {
			sc = &spanComm{Comm: comm, tr: e.tr}
			comm = sc
		}
		w, err := newWorker(comm, e.views[rank], e.cfg.trainSeed(fmt.Sprintf("local-%d", rank)), roundTrace)
		if err != nil {
			return err
		}
		gap0, err := w.Gap()
		if err != nil {
			return err
		}
		target := e.rg.epsDist * gap0
		for round := 1; round <= capRounds; round++ {
			var id int
			if sc != nil {
				id = e.tr.start(parent, "dist", "Worker.RunEpoch")
				sc.parent = id
			}
			t := time.Now()
			if _, err := w.RunEpoch(); err != nil {
				return err
			}
			dur := time.Since(t)
			e.tr.end(id)
			if sc != nil {
				id = e.tr.start(parent, "dist", "Worker.Gap")
				sc.parent = id
			}
			gap, err := w.Gap()
			e.tr.end(id)
			if err != nil {
				return err
			}
			run.finalGaps[rank] = gap
			reached := gap <= target
			if rank == 0 {
				run.rounds = round
				run.roundMs = append(run.roundMs, ms(dur))
				run.gammas = append(run.gammas, w.Gamma())
				run.reached = reached
			}
			if reached {
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return run, err
	}
	st.rounds += run.rounds
	if sink != nil {
		st.computeMs = append(st.computeMs, sink.computeMs...)
		st.commMs = append(st.commMs, sink.commMs...)
	}
	return run, nil
}

// distTurn makes one fresh distributed run and checks it: the target is
// reached and all ranks agree on the final gap bit for bit (sequential
// locals and a transport that reduces in rank order make the whole run
// deterministic).
func (e *env) distTurn(parent int, st *distStats, ck *checks) error {
	run, err := e.distToGap(parent, st)
	if err != nil {
		return err
	}
	ck.ok(run.reached, "dist did not reach %g·gap₀ (gap %g after %d rounds)", e.rg.epsDist, run.finalGaps[0], run.rounds)
	for r, g := range run.finalGaps {
		ck.ok(math.Float64bits(g) == math.Float64bits(run.finalGaps[0]), "rank %d final gap %g differs from rank 0's %g", r, g, run.finalGaps[0])
	}
	st.runs = append(st.runs, run)
	return nil
}

// distMetrics turns the distributed phase into metrics.
func (e *env) distMetrics(st *distStats, m metrics) {
	var sums, roundMs, gammas []float64
	for _, r := range st.runs {
		var sum float64
		for _, d := range r.roundMs {
			sum += d
		}
		sums = append(sums, sum)
		roundMs = append(roundMs, r.roundMs...)
		gammas = append(gammas, r.gammas...)
	}
	if len(st.runs) > 0 {
		m["dist_time_to_gap_s"] = median(sums) / 1e3
		m["dist.rounds_to_gap"] = float64(st.runs[0].rounds)
	}
	m["dist_round_ms"] = median(roundMs)
	var sum float64
	for _, g := range gammas {
		sum += g
	}
	m["dist.gamma_mean"] = sum / float64(max(len(gammas), 1))
	m["dist.local_epoch_ms"] = median(st.computeMs)
	m["dist.collective_ms"] = median(st.commMs)
	if scd := m["scd_epoch_ms"]; scd > 0 {
		m["dist.local_over_engine"] = m["dist.local_epoch_ms"] / (scd / workers)
	}
}

// allreduceLoop times Comm.Allreduce at the workload's shared-vector
// length over an assembled K-rank group until deadline and returns rank
// 0's median call time in milliseconds.
func allreduceLoop(comms []cluster.Comm, n int, deadline time.Time, tr *tracer, parent int) (float64, error) {
	var rank0 []float64
	err := runRanks(len(comms), func(rank int) error {
		in, out := make([]float32, n), make([]float32, n)
		for i := range in {
			in[i] = float32(rank + 1)
		}
		for {
			// Every rank must agree on whether to go on: rank 0 decides
			// and says so through a scalar allreduce.
			more := 0.0
			if rank == 0 && time.Now().Before(deadline) {
				more = 1
			}
			sums, err := comms[rank].AllreduceScalars([]float64{more})
			if err != nil {
				return err
			}
			if sums[0] == 0 {
				return nil
			}
			var id int
			if rank == 0 {
				id = tr.start(parent, "cluster", "Allreduce")
			}
			t := time.Now()
			if err := comms[rank].Allreduce(in, out); err != nil {
				return err
			}
			if rank == 0 {
				rank0 = append(rank0, ms(time.Since(t)))
				tr.end(id)
			}
		}
	})
	return median(rank0), err
}

// clusterPhase (traced runs) measures the collective on its own, on both
// transports, and counts the exact bytes and calls of a K=4 round — a
// count only, because four ranks on two cores time the scheduler.
func (e *env) clusterPhase(deadline time.Time, parent int, m metrics) error {
	id := e.tr.start(parent, "bench", "cluster")
	defer e.tr.end(id)
	n := e.loss.SharedLen()
	half := time.Now().Add(time.Until(deadline) / 2)

	var err error
	if m["cluster.allreduce_ms.tcp"], err = allreduceLoop(e.comms, n, half, e.tr, id); err != nil {
		return err
	}
	inproc, err := cluster.InProc(workers)
	if err != nil {
		return err
	}
	m["cluster.allreduce_ms.inproc"], err = allreduceLoop(inproc, n, deadline, e.tr, id)
	for _, c := range inproc {
		c.Close()
	}
	if err != nil {
		return err
	}

	if m["cluster.bytes_per_round"], m["cluster.calls_per_round"], err = e.countRounds(e.comms, e.views, e.clusterObs); err != nil {
		return err
	}
	const k4 = 4
	reg := obs.NewRegistry()
	ccfg := cluster.DefaultConfig()
	ccfg.Obs = reg
	comms, err := dialGroup(k4, ccfg)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	parts := dist.PartitionRandom(e.loss.NumCoords(), k4, e.cfg.trainSeed("partition-k4"))
	views := make([]*coords.View, k4)
	for r := range views {
		views[r] = coords.Subset(e.problem, e.rg.form, parts[r])
	}
	m["cluster.bytes_per_round_k4"], m["cluster.calls_per_round_k4"], err = e.countRounds(comms, views, reg)
	return err
}

// countRounds runs a few rounds on fresh workers and returns the exact
// transport bytes (all ranks) and collective calls (per rank) one round
// costs. No gap is evaluated, so nothing but the round is counted.
func (e *env) countRounds(comms []cluster.Comm, views []*coords.View, reg *obs.Registry) (bytes, calls float64, err error) {
	const rounds = 3
	k := len(comms)
	counted := make([]*spanComm, k)
	ws := make([]*dist.Worker, k)
	for r := range comms {
		counted[r] = &spanComm{Comm: comms[r]}
		if ws[r], err = newWorker(counted[r], views[r], e.cfg.trainSeed(fmt.Sprintf("count-%d", r)), nil); err != nil {
			return 0, 0, err
		}
	}
	// A barrier first, so connection handshakes are over before counting.
	if err = runRanks(k, func(r int) error { return comms[r].Barrier() }); err != nil {
		return 0, 0, err
	}
	sent := reg.Counter("cluster_bytes_sent_total")
	before := sent.Value()
	err = runRanks(k, func(r int) error {
		for i := 0; i < rounds; i++ {
			if _, err := ws[r].RunEpoch(); err != nil {
				return err
			}
		}
		return nil
	})
	return float64(sent.Value()-before) / rounds, float64(counted[0].calls) / rounds, err
}
