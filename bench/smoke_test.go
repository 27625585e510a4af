package main

import (
	"io"
	"math"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at 1/50 scale, untraced
// and traced, and checks the emitted result against the contract: exactly
// the metrics the file names for that kind of run, with its units, every
// end-to-end value a positive number, and no failed operation. It keeps
// the harness from rotting when the program's public functions change.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(regimes) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(regimes))
	}
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			want := sp.EndToEnd
			if trace {
				name, want = w.Name+"/traced", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 7, seconds: 1.2, trace: trace, scale: 0.02, outDir: t.TempDir()}
				rep, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res, err := resultOf(sp, rep, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, rep.checks.messages)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s unit %q, want %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("%s = %v, end-to-end metrics are never 0", m.Name, v.Value)
					}
				}
				if trace {
					for _, name := range measuredEverywhere {
						if rep.metrics[name] <= 0 {
							t.Errorf("%s = %v, want it measured on every workload", name, rep.metrics[name])
						}
					}
				}
			})
		}
	}
}

// measuredEverywhere are per-layer metrics every workload crosses the layer
// of; a zero there means a measurement silently fell out of the traced run
// (the report fills unmeasured per-layer metrics with zero work).
var measuredEverywhere = []string{
	"bench.setup_train_s", "bench.setup_serve_s",
	"datasets.gen_s", "ridge.problem_build_s", "checkpoint.save_ms", "checkpoint.load_ms",
	"engine.scd.nnz_per_s", "engine.wild.nnz_per_s", "engine.scd.epochs_to_gap", "engine.gap_eval_ms",
	"gpusim.modeled_epoch_ms", "dist.local_epoch_ms", "dist.collective_ms", "dist.rounds_to_gap",
	"cluster.allreduce_ms.tcp", "cluster.allreduce_ms.inproc", "cluster.bytes_per_round", "cluster.calls_per_round_k4",
	"serve.parse_json_us_per_row", "serve.parse_libsvm_us_per_row", "serve.margin_ns_per_nnz",
	"serve.batcher_hop_us", "serve.handler_ms", "serve.batch_fill", "serve.queue_wait_ms",
	"serve.direct_p50_ms", "route.attempts_per_req", "route.cache_put_us", "shard.combine_ns",
	"go.allocs_per_epoch", "go.allocs_per_req", "trace.self_s.engine", "trace.train_coverage",
}
