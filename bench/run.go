package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metrics holds every number a run measured, by metric name. The report
// picks from it the names BENCHMARK.json lists for the kind of run.
type metrics map[string]float64

// report is the outcome of one run.
type report struct {
	metrics metrics
	checks  *checks
	notes   []string // sample counts and warnings, for the printed table
}

// setupRepeats is how many times a run sets the workload up from scratch;
// setup_s is the median, and the last one built is the one measured. The
// benchmark contract asks for it ("set up several times in a run and
// report the median"): one set-up per process cannot be told from the
// process's own start-up noise.
const setupRepeats = 3

// run executes one workload: set-up (repeated, timed), then the measured
// window — the training rotation, then serving — then the report.
func run(cfg config, out io.Writer) (*report, error) {
	rg, err := findRegime(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, fmt.Errorf("seconds and scale must be positive")
	}
	if cfg.trainSet < 0 || cfg.trainSet >= len(trainSeeds) {
		return nil, fmt.Errorf("training set must be 1 to %d", len(trainSeeds))
	}
	t0 := time.Now()
	var tr *tracer
	sh := untracedShares
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-%d", cfg.workload, cfg.seed), t0)
		sh = tracedShares
	}
	rep := &report{metrics: metrics{}, checks: &checks{}}
	m, ck := rep.metrics, rep.checks
	root := tr.start(0, "bench", "bench.run")

	// Set-up.
	setupSpan := tr.start(root, "bench", "setup")
	var e *env
	var setups, trainSetups, serveSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		if e, err = setup(cfg, rg, tr, setupSpan); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (e.trainSetup + e.serveSetup).Seconds())
		trainSetups = append(trainSetups, e.trainSetup.Seconds())
		serveSetups = append(serveSetups, e.serveSetup.Seconds())
	}
	defer e.close()
	m["setup_s"] = median(setups)
	m["bench.setup_train_s"] = median(trainSetups)
	m["bench.setup_serve_s"] = median(serveSetups)
	for k, v := range e.layer {
		m[k] = v
	}
	heap := heapMB()
	tr.end(setupSpan)

	// Measured window: the training rotation until its share is used,
	// then a serving window whose length does not depend on how the
	// training half went.
	window := time.Duration(cfg.seconds * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(f * float64(window)) }
	measure := tr.start(root, "bench", "measure")
	start := time.Now()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	ts, ds := newTrainStats(), &distStats{}
	trainSpan := tr.start(measure, "bench", "train")
	drivers := timedDrivers
	if cfg.trace {
		drivers = append(append([]driver(nil), timedDrivers...), wildDriver)
		if err := e.convergencePhase(start.Add(share(sh.conv)), trainSpan, ts, ck); err != nil {
			return nil, err
		}
		if err := e.clusterPhase(time.Now().Add(share(sh.cluster)), trainSpan, m); err != nil {
			return nil, err
		}
	}
	var mid runtime.MemStats
	runtime.ReadMemStats(&mid)
	epochsBefore := ts.epochs
	if err := e.trainPhase(drivers, start.Add(share(sh.trainEnd)), trainSpan, ts, ds, ck); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	m["go.allocs_per_epoch"] = float64(after.Mallocs-mid.Mallocs) / float64(max(ts.epochs-epochsBefore, 1))
	tr.end(trainSpan)
	trainTime := time.Since(start)
	if err := e.trainMetrics(ts, m); err != nil {
		return nil, err
	}
	e.distMetrics(ds, m)
	// heap_mb is the process with the training set live: end of set-up or
	// end of training, whichever is larger.
	m["heap_mb"] = max(heap, heapMB())

	// The training set is dead weight to a serving process: release it so
	// the serving window runs with the heap a server would have, and
	// serve_heap_mb can see a change in serving-side memory.
	e.problem, e.loss, e.views = nil, nil, nil
	runtime.GC()

	serveSpan := tr.start(measure, "bench", "serve")
	serveStart := time.Now()
	runtime.ReadMemStats(&mid)
	res := e.servePhase(share(sh.serve), serveSpan, m, ck)
	runtime.ReadMemStats(&after)
	m["go.allocs_per_req"] = float64(after.Mallocs-mid.Mallocs) / float64(max(res.requests, 1))
	m["serve_heap_mb"] = heapMB()
	if cfg.trace {
		e.fleetMetrics(res, m)
		e.directPhase(share(sh.direct), serveSpan, m, ck)
		if err := e.layerPhase(share(sh.layers), serveSpan, m); err != nil {
			return nil, err
		}
	}
	tr.end(serveSpan)
	tr.end(measure)
	runtime.ReadMemStats(&after)
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	tr.end(root)

	ck.ops(ts.epochs + ds.rounds)
	rep.notes = append(rep.notes,
		fmt.Sprintf("set-ups %d; scd runs to gap %d (%d epochs each); dist runs %d (%d rounds each); timed epochs per driver %d",
			len(setups), len(ts.ttg), ts.ttg[0].epochs, len(ds.runs), ds.runs[0].rounds, len(ts.epochMs["scd"])),
		fmt.Sprintf("serving: %d requests kept, %d in the emptiest of %d slices, highest supported percentile p%g overall / p%g per slice",
			len(res.win.all), res.win.minSliceCount(), slices,
			100*supportedPercentile(len(res.win.all)), 100*supportedPercentile(res.win.minSliceCount())),
		fmt.Sprintf("window: training %.1fs, serving %.1fs", trainTime.Seconds(), time.Since(serveStart).Seconds()),
	)
	if res.win.minSliceCount() < 1000 {
		rep.notes = append(rep.notes, "WARNING: a slice holds fewer than 1000 requests; its p99 has fewer than ten samples beyond it")
	}

	if tr != nil {
		self := tr.selfTimes()
		for _, layer := range []string{"engine", "dist", "cluster", "serve", "bench"} {
			m["trace.self_s."+layer] = self[layer].Seconds()
		}
		m["trace.self_s.front"] = (self["route"] + self["shard"]).Seconds()
		// On the training half every span is sequential and nested, so the
		// layers' self times must add up to the time the half took.
		var sum time.Duration
		for _, l := range []string{"engine", "dist", "cluster"} {
			sum += self[l]
		}
		m["trace.train_coverage"] = sum.Seconds() / trainTime.Seconds()
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		printSelfTimes(out, self)
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return rep, nil
}

// heapMB forces a collection and returns the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// printTable prints the run's metrics by name and unit: the end-to-end ones,
// and in a traced run the per-layer ones too.
func printTable(w io.Writer, sp *spec, rep *report, trace bool) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		if trace || sp.endToEnd(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rep.metrics[n], sp.unit(n))
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, msg := range rep.checks.messages {
		fmt.Fprintln(w, "  FAILED: "+msg)
	}
}
