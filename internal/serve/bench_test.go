package serve

import (
	"context"
	"testing"
	"time"

	"tpascd/internal/obs"
)

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
}
