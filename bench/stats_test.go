package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// The driver judges spread with Python's statistics.quantiles(xs, n=4);
// the expected values below are what Python prints for these inputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 7, 4, 4})
	if !near(q1, 3) || !near(q2, 4) || !near(q3, 8.5) {
		t.Errorf("quartiles(10,2,7,4,4) = %v %v %v", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{3, 1})
	if !near(q1, 0.5) || !near(q3, 3.5) {
		t.Errorf("quartiles of two values = %v %v", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// One slice out of ten is hit by a stall: the slice-median tail and
// throughput do not move, the warm-up is discarded, and the median latency
// is over every kept sample.
func TestWindowSliceMedianIgnoresOneBadSlice(t *testing.T) {
	const warm, end = 2 * time.Second, 12 * time.Second
	var samples []sample
	// Warm-up traffic is slow and must not be seen.
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{done: time.Duration(i) * warm / 100, lat: time.Second, rows: 1})
	}
	for s := 0; s < 10; s++ {
		for i := 0; i < 1000; i++ {
			lat := time.Millisecond
			if i >= 990 { // the slice's top 1 %
				lat = 3 * time.Millisecond
			}
			if s == 4 {
				lat *= 20 // the stalled slice
			}
			done := warm + time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{done: done, lat: lat, rows: 2, traced: i%2 == 1})
		}
	}
	samples = append(samples, sample{done: end, lat: time.Hour, rows: 1}) // past the end
	w := cutWindow(samples, warm, end, 10)
	if len(w.all) != 10000 {
		t.Fatalf("kept %d samples, want 10000", len(w.all))
	}
	if got := w.minSliceCount(); got != 1000 {
		t.Errorf("minSliceCount = %d", got)
	}
	if got := w.slicePercentile(0.99); got != 1 {
		t.Errorf("slice-median p99 = %v ms, want 1 (nearest rank: the 990th of 1000)", got)
	}
	if got := w.slicePercentile(0.995); got != 3 {
		t.Errorf("slice-median p99.5 = %v ms, want 3", got)
	}
	if got := percentile(w.all, 0.99); got != 20 {
		t.Errorf("overall p99 = %v ms; the stalled slice should own the overall tail", got)
	}
	if got := w.sliceRowsPerSec(); got != 2000 {
		t.Errorf("rows/s = %v, want 2000", got)
	}
	if got := percentile(w.all, 0.5); got != 1 {
		t.Errorf("p50 = %v ms", got)
	}
	if len(w.traced) != 5000 || len(w.plain) != 5000 {
		t.Errorf("%d traced and %d plain samples, want 5000 each", len(w.traced), len(w.plain))
	}
	if tr, pl := percentile(w.traced, 0.5), percentile(w.plain, 0.5); tr != 1 || pl != 1 {
		t.Errorf("traced/plain medians = %v / %v", tr, pl)
	}
}

func TestExactCount(t *testing.T) {
	if err := exactCount("epochs", []int{19, 19, 19}, 19); err != nil {
		t.Errorf("exactCount equal and as pinned: %v", err)
	}
	if err := exactCount("epochs", []int{19, 19, 19}, 0); err != nil {
		t.Errorf("exactCount equal, no pin: %v", err)
	}
	if err := exactCount("epochs", []int{24, 24, 24}, 20); err == nil {
		t.Error("exactCount accepted a count that repeats but is not the pinned one")
	}
	if err := exactCount("rounds", []int{7, 7, 8}, 0); err == nil {
		t.Error("exactCount accepted differing counts")
	}
	if err := exactCount("bytes", nil, 0); err == nil {
		t.Error("exactCount accepted no runs")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("t", time.Now())
	set := func(id int, start, end int64) { tr.spans[id-1].Start, tr.spans[id-1].End = start, end }
	root := tr.start(0, "bench", "run")
	a := tr.start(root, "engine", "a")
	b := tr.start(root, "engine", "b")
	c := tr.start(b, "cluster", "c")
	set(root, 0, 100)
	set(a, 10, 40)
	set(b, 50, 90)
	set(c, 60, 70)
	self := tr.selfTimes()
	if self["bench"] != 30 || self["engine"] != 60 || self["cluster"] != 10 {
		t.Errorf("self times = %v", self)
	}
	var off *tracer
	if id := off.start(0, "x", "y"); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
	off.end(0)
	tr.on.Store(false)
	if id := tr.start(root, "x", "y"); id != 0 {
		t.Errorf("paused tracer recorded span %d", id)
	}
}
