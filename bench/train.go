package main

import (
	"fmt"
	"math"
	"time"

	"tpascd/internal/engine"
)

// driver is one engine driver as the benchmark runs it.
type driver struct {
	key  string // metric name fragment: scd, ascd, syscd, tpascd, wild
	name string // engine registry name
}

// timedDrivers are the four drivers whose epoch time is an end-to-end
// metric. Only the first, sequential SCD, is deterministic in its epoch
// count and may be timed to a gap; the others race. wild joins the rotation
// in traced runs for its nnz/s only (it plateaus by design, so it has no
// convergence check).
var (
	timedDrivers = []driver{
		{key: "scd", name: engine.DriverSequential},
		{key: "ascd", name: engine.DriverAtomic},
		{key: "syscd", name: engine.DriverSyscd},
		{key: "tpascd", name: engine.DriverGPU},
	}
	wildDriver = driver{key: "wild", name: engine.DriverWild}
)

// newSolver builds a fresh solver at the zero model. The permutation seed
// depends only on the driver, so every restart of a deterministic driver
// repeats the same computation.
func (e *env) newSolver(d driver) (engine.Solver, error) {
	return engine.NewSolver(e.loss, engine.DriverSpec{
		Name:    d.name,
		Threads: workers,
		Seed:    e.cfg.trainSeed("solver-" + d.key),
		Device:  e.device,
	})
}

// closeSolver releases device memory held by the GPU driver.
func closeSolver(s engine.Solver) {
	if c, ok := s.(interface{ Close() }); ok {
		c.Close()
	}
}

// gapRun is one fresh run of a driver to a relative gap.
type gapRun struct {
	epochs   int     // epochs run; the cap when the target was not reached
	reached  bool    // gap ≤ target within the cap
	sumMs    float64 // summed RunEpoch wall time
	finalGap float64
}

// trainStats accumulates what the single-node phases measured.
type trainStats struct {
	ttg       []gapRun             // sequential runs to epsTTG
	epochMs   map[string][]float64 // fixed-epoch protocol, per driver key
	gapEvalMs []float64
	conv      map[string][]gapRun // traced: runs of every driver to epsConv
	modeledMs float64             // perfmodel seconds of one tpa-scd epoch, ×1000
	epochs    int                 // all RunEpoch calls, for attempted
}

func newTrainStats() *trainStats {
	return &trainStats{epochMs: map[string][]float64{}, conv: map[string][]gapRun{}}
}

// runToGap runs a fresh solver until its gap is at most eps times the
// zero-model gap or capEpochs are spent. The clock covers RunEpoch only;
// Gap is evaluated after every epoch off the clock (it recomputes the
// shared vector from the model, about an epoch of work) and timed on its
// own.
func (e *env) runToGap(d driver, eps float64, capEpochs, parent int, st *trainStats) (gapRun, error) {
	s, err := e.newSolver(d)
	if err != nil {
		return gapRun{}, err
	}
	defer closeSolver(s)
	target := eps * e.gap0
	run := gapRun{finalGap: e.gap0}
	for run.epochs < capEpochs {
		id := e.tr.start(parent, "engine", d.key+".RunEpoch")
		t := time.Now()
		s.RunEpoch()
		dur := time.Since(t)
		e.tr.end(id)
		run.epochs++
		st.epochs++

		id = e.tr.start(parent, "engine", d.key+".Gap")
		t = time.Now()
		gap := s.Gap()
		st.gapEvalMs = append(st.gapEvalMs, ms(time.Since(t)))
		e.tr.end(id)

		run.sumMs += ms(dur)
		run.finalGap = gap
		if gap <= target {
			run.reached = true
			break
		}
	}
	return run, nil
}

// trainPhase is the training half of the window: a rotation that repeats
// until deadline (at least twice). One turn is a fresh sequential run to
// epsTTG, a fresh K-rank distributed run to epsDist, and for every driver a
// restart from the zero model followed by E timed epochs. Interleaving
// everything turn by turn spreads each metric's samples over the whole
// half, so machine drift — seconds-long slow spells are common on a shared
// two-core box, above all while both cores are busy — hits all metrics
// alike and averages out of each.
//
// Sequential SCD and the distributed runs are deterministic in their epoch
// and round counts, which is what makes their time-to-gap an end-to-end
// metric; the counts and the final sequential gap must repeat exactly
// across turns. The other drivers race: they get a per-epoch wall time
// over the fixed budget, and a convergence check after every restart's E
// epochs, off the clock. Every timed epoch sits in the same convergence
// regime that way (converged coordinates return zero steps and skip the
// shared-vector update, which makes late epochs cheaper).
func (e *env) trainPhase(drivers []driver, deadline time.Time, parent int, ts *trainStats, ds *distStats, ck *checks) error {
	const minTurns, capEpochs = 2, 200
	began := time.Now()
	for turn := 0; ; turn++ {
		// A turn is started only if one of average length still ends in
		// time: the serving half must not pay for an overrun.
		if now := time.Now(); turn >= minTurns && now.Add(now.Sub(began)/time.Duration(turn)).After(deadline) {
			break
		}
		id := e.tr.start(parent, "bench", "turn")
		run, err := e.runToGap(timedDrivers[0], e.rg.epsTTG, capEpochs, id, ts)
		if err != nil {
			return err
		}
		ck.ok(run.reached, "scd did not reach %g·gap₀ in %d epochs (gap %g)", e.rg.epsTTG, capEpochs, run.finalGap/e.gap0)
		ts.ttg = append(ts.ttg, run)

		if err := e.distTurn(id, ds, ck); err != nil {
			return err
		}

		for _, d := range drivers {
			s, err := e.newSolver(d)
			if err != nil {
				return err
			}
			if m, ok := s.(interface{ EpochSeconds() float64 }); ok {
				ts.modeledMs = m.EpochSeconds() * 1e3
			}
			for i := 0; i < e.rg.block; i++ {
				sp := e.tr.start(id, "engine", d.key+".RunEpoch")
				t := time.Now()
				s.RunEpoch()
				ts.epochMs[d.key] = append(ts.epochMs[d.key], ms(time.Since(t)))
				e.tr.end(sp)
			}
			ts.epochs += e.rg.block
			sp := e.tr.start(id, "engine", d.key+".Gap")
			gap := s.Gap()
			e.tr.end(sp)
			closeSolver(s)
			if d.key != wildDriver.key {
				ck.ok(gapWithin(gap, e.gap0, e.rg.boundFor(d.key)),
					"%s: gap %.3g·gap₀ after %d epochs exceeds %g", d.key, gap/e.gap0, e.rg.block, e.rg.boundFor(d.key))
			}
		}
		e.tr.end(id)
	}

	var epochs, rounds []int
	for _, r := range ts.ttg {
		epochs = append(epochs, r.epochs)
		ck.ok(math.Float64bits(r.finalGap) == math.Float64bits(ts.ttg[0].finalGap),
			"scd final gap differs between fresh runs: %g vs %g", r.finalGap, ts.ttg[0].finalGap)
	}
	for _, r := range ds.runs {
		rounds = append(rounds, r.rounds)
	}
	// The pins hold for the reference problem sizes only; a scaled-down
	// smoke run checks that the counts repeat.
	var wantEpochs, wantRounds int
	if e.cfg.scale == 1 {
		wantEpochs, wantRounds = e.rg.ttgEpochs[e.cfg.trainSet], e.rg.distRounds[e.cfg.trainSet]
	}
	err := exactCount("scd epochs to gap", epochs, wantEpochs)
	ck.ok(err == nil, "%v", err)
	err = exactCount("dist rounds to gap", rounds, wantRounds)
	ck.ok(err == nil, "%v", err)
	return nil
}

// convergencePhase (traced runs) counts every driver's epochs to the loose
// target epsConv, a few fresh runs each. For the racy drivers the count
// varies from run to run — the reason their time-to-gap is not an
// end-to-end metric — so it is reported with its spread and never gated.
// A run that does not reach the target within the cap reports the cap.
func (e *env) convergencePhase(deadline time.Time, parent int, st *trainStats, ck *checks) error {
	const runs = 3
	id := e.tr.start(parent, "bench", "epochs-to-gap")
	defer e.tr.end(id)
	capEpochs := 40
	for _, d := range timedDrivers {
		for i := 0; i < runs; i++ {
			if i > 0 && !time.Now().Before(deadline) {
				break
			}
			run, err := e.runToGap(d, epsConv, capEpochs, id, st)
			if err != nil {
				return err
			}
			st.conv[d.key] = append(st.conv[d.key], run)
		}
		if d.key == "scd" {
			// Racy drivers get three times what the exact one needs.
			capEpochs = 3 * st.conv["scd"][0].epochs
			var counts []int
			for _, r := range st.conv["scd"] {
				counts = append(counts, r.epochs)
			}
			err := exactCount("scd epochs to loose gap", counts, 0)
			ck.ok(err == nil, "%v", err)
		}
	}
	return nil
}

// epochsToGap summarises a driver's convergence runs.
func epochsToGap(runs []gapRun) (med, iqr float64) {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, float64(r.epochs))
	}
	if len(xs) < 2 {
		return median(xs), 0
	}
	q1, _, q3 := quartiles(xs)
	return median(xs), q3 - q1
}

// trainMetrics turns the single-node phases into metrics.
func (e *env) trainMetrics(st *trainStats, m metrics) error {
	if len(st.ttg) == 0 {
		return fmt.Errorf("no time-to-gap runs")
	}
	var ttg []float64
	for _, r := range st.ttg {
		ttg = append(ttg, r.sumMs)
	}
	m["scd_time_to_gap_s"] = median(ttg) / 1e3
	nnz := float64(e.loss.NNZ())
	for key, xs := range st.epochMs {
		med := median(xs)
		if key != wildDriver.key {
			m[key+"_epoch_ms"] = med
		}
		m["engine."+key+".nnz_per_s"] = nnz / (med / 1e3)
	}
	m["engine.scd.ttg_epochs"] = float64(st.ttg[0].epochs)
	m["engine.gap_eval_ms"] = median(st.gapEvalMs)
	m["gpusim.modeled_epoch_ms"] = st.modeledMs
	if st.modeledMs > 0 {
		m["gpusim.wall_over_modeled"] = m["tpascd_epoch_ms"] / st.modeledMs
	}
	if scd := st.conv["scd"]; len(scd) > 0 {
		exact := float64(scd[0].epochs)
		for key, runs := range st.conv {
			med, iqr := epochsToGap(runs)
			m["engine."+key+".epochs_to_gap"] = med
			if key != "scd" {
				m["engine."+key+".epochs_to_gap_iqr"] = iqr
				m["engine."+key+".conv_eff"] = exact / med
			}
		}
	}
	return nil
}
