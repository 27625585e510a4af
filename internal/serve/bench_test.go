package serve

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"tpascd/internal/obs"
)

// Serving-path benchmarks. When TPASCD_BENCH_JSON names a file, each
// benchmark appends one JSON object per run (name, ops, ns/op, plus
// batching stats), building a trajectory across runs (CI archives it;
// the repo's committed performance ledger is bench/README.md).

type benchRecord struct {
	Name    string             `json:"name"`
	Ops     int                `json:"ops"`
	NsPerOp float64            `json:"ns_per_op"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

func emitBench(b *testing.B, name string, extra map[string]float64) {
	b.Helper()
	path := os.Getenv("TPASCD_BENCH_JSON")
	if path == "" {
		return
	}
	rec := benchRecord{
		Name:    name,
		Ops:     b.N,
		NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		Extra:   extra,
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		b.Fatalf("bench json: %v", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	if err := enc.Encode(rec); err != nil {
		b.Fatalf("bench json: %v", err)
	}
}

func benchSetup(b *testing.B, dim int) (*Registry, [][]int32, [][]float32) {
	b.Helper()
	weights := make([]float32, dim)
	for i := range weights {
		weights[i] = float32(i%13) - 6
	}
	reg := testRegistry(b, KindLogistic, weights)
	idxs, vals := sampleRows(b, 256, dim, 7)
	return reg, idxs, vals
}

// BenchmarkPredict measures the single-request path: one caller, so
// every batch holds exactly one row and the cost is dominated by the
// queue hop plus one sparse dot product.
func BenchmarkPredict(b *testing.B) {
	const dim = 1 << 14
	reg, idxs, vals := benchSetup(b, dim)
	bt := NewBatcher(reg, nil, BatcherConfig{MaxBatch: 64, MaxWait: 50 * time.Microsecond})
	defer bt.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % len(idxs)
		if _, err := bt.Predict(ctx, idxs[r], vals[r]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	emitBench(b, "Predict", nil)
}

// BenchmarkPredictBatched measures the same path under concurrent
// callers, where the collector coalesces requests into multi-row
// batches; the reported avg batch size shows how much coalescing the
// micro-batcher achieved.
func BenchmarkPredictBatched(b *testing.B) {
	const dim = 1 << 14
	reg, idxs, vals := benchSetup(b, dim)
	met := NewMetrics(obs.NewRegistry())
	bt := NewBatcher(reg, met, BatcherConfig{MaxBatch: 64, MaxWait: 50 * time.Microsecond})
	defer bt.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := 0
		for pb.Next() {
			r = (r + 1) % len(idxs)
			if _, err := bt.Predict(ctx, idxs[r], vals[r]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	s := met.Snapshot(reg)
	b.ReportMetric(s.AvgBatch, "rows/batch")
	emitBench(b, "PredictBatched", map[string]float64{
		"avg_batch": s.AvgBatch,
		"batches":   float64(s.Batches),
	})
}
