package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile p in (0,1] of an ascending
// slice: the smallest value with at least p·n values at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver uses to judge spread.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4 // after the clamp: short inputs extrapolate, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure the bounds in BENCHMARK.json are set against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// supportedPercentile is the highest of the usual percentiles that still
// has at least ten of n samples beyond it; a tail read off fewer samples
// than that is an anecdote, not a statistic.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		// Samples above the nearest-rank percentile; the epsilon keeps
		// 0.9·100 from rounding up to the 91st.
		if n-int(math.Ceil(p*float64(n)-1e-9)) >= 10 {
			best = p
		}
	}
	return best
}

// sample is one completed request as the load generator saw it.
type sample struct {
	done time.Duration // completion time since the window opened
	lat  time.Duration
	rows int
	// traced is set when the request was sent while spans were being
	// recorded (traced runs record during every other short period).
	traced bool
}

// window is a serving measurement cut into equal slices after a discarded
// warm-up. End-to-end tail and throughput figures are medians over the
// slices, so one slice hit by a GC cycle or a scheduler hiccup cannot move
// them; the median latency is over all kept samples.
type window struct {
	sliceLen time.Duration
	lat      [][]float64 // per slice, milliseconds, ascending
	rows     []int       // per slice, rows answered
	all      []float64   // every kept latency, ascending
	// traced and plain split all by whether spans were being recorded
	traced, plain []float64
}

// cutWindow drops samples completed before warm, and cuts [warm, end) into
// k slices by completion time.
func cutWindow(samples []sample, warm, end time.Duration, k int) window {
	w := window{sliceLen: (end - warm) / time.Duration(k), lat: make([][]float64, k), rows: make([]int, k)}
	for _, s := range samples {
		if s.done < warm || s.done >= end {
			continue
		}
		i := min(int((s.done-warm)/w.sliceLen), k-1)
		ms := float64(s.lat) / 1e6
		w.lat[i] = append(w.lat[i], ms)
		w.rows[i] += s.rows
		w.all = append(w.all, ms)
		if s.traced {
			w.traced = append(w.traced, ms)
		} else {
			w.plain = append(w.plain, ms)
		}
	}
	for i := range w.lat {
		sort.Float64s(w.lat[i])
	}
	sort.Float64s(w.all)
	sort.Float64s(w.traced)
	sort.Float64s(w.plain)
	return w
}

// slicePercentile is the median over slices of each slice's percentile p.
func (w window) slicePercentile(p float64) float64 {
	var per []float64
	for _, l := range w.lat {
		if len(l) > 0 {
			per = append(per, percentile(l, p))
		}
	}
	return median(per)
}

// sliceRowsPerSec is the median over slices of rows answered per second.
func (w window) sliceRowsPerSec() float64 {
	per := make([]float64, len(w.rows))
	for i, r := range w.rows {
		per[i] = float64(r) / w.sliceLen.Seconds()
	}
	return median(per)
}

// minSliceCount is the request count of the emptiest slice.
func (w window) minSliceCount() int {
	m := math.MaxInt
	for _, l := range w.lat {
		m = min(m, len(l))
	}
	return m
}

// exactCount asserts that a deterministic count repeated exactly across
// fresh runs and, when want is not 0, that it equals the pinned value.
func exactCount(what string, counts []int, want int) error {
	if len(counts) == 0 {
		return fmt.Errorf("%s: no runs", what)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			return fmt.Errorf("%s did not repeat exactly: %v", what, counts)
		}
	}
	if want != 0 && counts[0] != want {
		return fmt.Errorf("%s is %d, pinned at %d", what, counts[0], want)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
