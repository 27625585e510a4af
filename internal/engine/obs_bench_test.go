package engine_test

import (
	"testing"
	"time"

	"tpascd/internal/engine"
	"tpascd/internal/obs"
	"tpascd/internal/perfmodel"
)

// epochHookNs times one solver epoch plus one firing of the hook,
// min-of-reps to shave scheduler noise.
func epochHookNs(tb testing.TB, hook engine.Hook) time.Duration {
	p := testProblem(tb, 9, 1500, 400, 10, 0.01)
	s := newSeq(p, perfmodel.Primal, 42)
	ev := engine.EpochEvent{Epoch: 1, Gap: 0.5, NNZ: 15000, Updates: 400, Seconds: 0.1}
	const warm, iters, reps = 2, 8, 5
	for i := 0; i < warm; i++ {
		s.RunEpoch()
	}
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			s.RunEpoch()
			hook(ev)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best / iters
}

// A disabled observability hook (nil tracer) must add ~zero overhead to
// the epoch loop: SpanHook(nil) degenerates to an empty function call,
// nanoseconds against an epoch costing tens of microseconds. The bound
// here is deliberately loose (2x plus absolute slack) so scheduler noise
// cannot flake CI — a regression that reintroduces per-epoch work on the
// disabled path (allocation, locking, formatting) still trips it.
func TestDisabledObsAddsNoEpochOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	bare := epochHookNs(t, func(engine.EpochEvent) {})
	disabled := epochHookNs(t, engine.SpanHook(nil, "engine.epoch"))
	limit := 2*bare + 200*time.Microsecond
	if disabled > limit {
		t.Fatalf("disabled-obs epoch %v vs bare %v (limit %v)", disabled, bare, limit)
	}
	t.Logf("epoch: bare %v, disabled obs %v", bare, disabled)
}

// BenchmarkEpochInstrumentation compares the epoch loop bare, under a
// disabled hook, and under a live ring-sink tracer.
func BenchmarkEpochInstrumentation(b *testing.B) {
	p := testProblem(b, 9, 1500, 400, 10, 0.01)
	for _, bc := range []struct {
		name string
		hook engine.Hook
	}{
		{"bare", func(engine.EpochEvent) {}},
		{"disabled", engine.SpanHook(nil, "engine.epoch")},
		{"ring", engine.SpanHook(obs.NewTracer(obs.NewRingSink(1024)), "engine.epoch")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := newSeq(p, perfmodel.Primal, 42)
			ev := engine.EpochEvent{Epoch: 1, Gap: 0.5, NNZ: 15000, Updates: 400, Seconds: 0.1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunEpoch()
				bc.hook(ev)
			}
		})
	}
}
