// Package datasets generates the synthetic stand-ins for the two datasets
// of the paper's evaluation.
//
// The real datasets are not redistributable here (webspam: 262,938 × 680,715
// trigram features, ~7.3 GB; criteo 1-day sample: ~200M × 75M, ~40 GB), so
// the generators reproduce the structural properties that drive the
// reported behaviour, at configurable scale:
//
//   - WebspamLike: sparse rows with power-law feature popularity (a few
//     very common trigrams, a long tail), positive feature values, ±1
//     labels generated from a sparse ground-truth separator plus label
//     noise. Feature popularity skew is what couples coordinates across
//     workers and produces the linear per-epoch slow-down of Fig. 3.
//   - CriteoLike: one-hot categorical rows — every stored value is exactly
//     1 (the paper notes this lets one halve the memory) — with one active
//     feature per field drawn from per-field Zipf distributions, and ±1
//     click labels from a sparse logit.
//
// All generation is deterministic in the seed.
package datasets

import (
	"fmt"
	"math"

	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

// WebspamConfig scales the webspam-like generator.
type WebspamConfig struct {
	// N and M are examples and features.
	N, M int
	// AvgNNZPerRow is the expected number of non-zeros per example.
	AvgNNZPerRow int
	// Skew is the Zipf exponent of feature popularity (≈1 for text).
	Skew float64
	// NoiseRate is the label-flip probability.
	NoiseRate float64
	// Seed makes the dataset reproducible.
	Seed uint64
}

// WebspamDefault is the laptop-scale default used by the experiment
// harness (the real webspam sample is 262,938 × 680,715).
func WebspamDefault() WebspamConfig {
	return WebspamConfig{N: 16384, M: 8192, AvgNNZPerRow: 40, Skew: 1.0, NoiseRate: 0.05, Seed: 20170222}
}

// Webspam generates a webspam-like sparse classification dataset.
func Webspam(cfg WebspamConfig) (*sparse.CSR, []float32, error) {
	if cfg.N <= 0 || cfg.M <= 0 || cfg.AvgNNZPerRow <= 0 {
		return nil, nil, fmt.Errorf("datasets: bad webspam config %+v", cfg)
	}
	if cfg.AvgNNZPerRow > cfg.M {
		return nil, nil, fmt.Errorf("datasets: AvgNNZPerRow %d exceeds M %d", cfg.AvgNNZPerRow, cfg.M)
	}
	r := rng.New(cfg.Seed)
	sampler := newZipfSampler(cfg.M, cfg.Skew)

	// Sparse ground-truth separator over ~5% of features.
	truth := make(map[int]float64, cfg.M/20+1)
	for len(truth) < cfg.M/20+1 {
		truth[r.Intn(cfg.M)] = r.NormFloat64()
	}

	coo := sparse.NewCOO(cfg.N, cfg.M, cfg.N*cfg.AvgNNZPerRow)
	y := make([]float32, cfg.N)
	seen := make(map[int]struct{}, cfg.AvgNNZPerRow*2)
	for i := 0; i < cfg.N; i++ {
		// Row degree: 1 + Binomial-ish spread around the average.
		deg := 1 + r.Intn(2*cfg.AvgNNZPerRow-1)
		clear(seen)
		var logit float64
		for len(seen) < deg {
			j := sampler.Sample(r)
			if _, dup := seen[j]; dup {
				continue
			}
			seen[j] = struct{}{}
			// Positive, heavy-tailed values like normalized counts.
			v := float32(math.Abs(r.NormFloat64())*0.5 + 0.1)
			coo.Append(i, j, v)
			if wj, ok := truth[j]; ok {
				logit += wj * float64(v)
			}
		}
		label := float32(1)
		if logit < 0 {
			label = -1
		}
		if r.Float64() < cfg.NoiseRate {
			label = -label
		}
		y[i] = label
	}
	return coo.ToCSR(), y, nil
}

// CriteoConfig scales the criteo-like generator.
type CriteoConfig struct {
	// N is the number of examples; Fields the number of categorical
	// fields (each example has exactly one active feature per field, so
	// nnz per row = Fields and every value is 1).
	N, Fields int
	// CardinalityBase sizes the per-field vocabularies: field f has
	// ~CardinalityBase/(f+1) + 2 values, giving a few huge fields and
	// many small ones, like hashed click-log categoricals.
	CardinalityBase int
	// PositiveRate is the fraction of positive (clicked) labels the
	// ground-truth threshold is tuned toward.
	PositiveRate float64
	// Seed makes the dataset reproducible.
	Seed uint64
}

// CriteoDefault is the laptop-scale default (the real 1-day sample is
// ~200M × 75M; the defaults keep the examples:features ratio ≈ 2.7:1).
func CriteoDefault() CriteoConfig {
	return CriteoConfig{N: 120000, Fields: 26, CardinalityBase: 20000, PositiveRate: 0.25, Seed: 20151101}
}

// Criteo generates a criteo-like one-hot categorical dataset. All stored
// values are exactly 1, so the matrix is pattern-only (no value array).
func Criteo(cfg CriteoConfig) (*sparse.CSR, []float32, error) {
	if cfg.N <= 0 || cfg.Fields <= 0 || cfg.CardinalityBase <= 0 {
		return nil, nil, fmt.Errorf("datasets: bad criteo config %+v", cfg)
	}
	// Rows come in order, and a row's features come in field order at
	// ascending, disjoint field offsets, so every row is already sorted
	// and free of duplicates: the CSR is assembled as it is generated.
	rowPtr := make([]int, 1, cfg.N+1)
	colIdx := make([]int32, 0, cfg.N*cfg.Fields)
	m, y := criteoRows(cfg, func(features []int) {
		for _, j := range features {
			colIdx = append(colIdx, int32(j))
		}
		rowPtr = append(rowPtr, len(colIdx))
	})
	return sparse.NewPatternCSR(cfg.N, m, rowPtr, colIdx), y, nil
}

// criteoRows draws the rows of a valid criteo-like config in order, handing
// each row's feature ids (one per field, in field order) to emit, and
// returns the number of features and the labels.
func criteoRows(cfg CriteoConfig, emit func(features []int)) (int, []float32) {
	r := rng.New(cfg.Seed)
	// Field vocabularies and their offsets in the global feature space.
	offsets := make([]int, cfg.Fields+1)
	samplers := make([]*zipfSampler, cfg.Fields)
	for f := 0; f < cfg.Fields; f++ {
		card := cfg.CardinalityBase/(f+1) + 2
		offsets[f+1] = offsets[f] + card
		samplers[f] = newZipfSampler(card, 1.1)
	}

	// Ground truth: a materialized weight per field value would be huge at
	// criteo scale, so hash each feature id to a continuous weight. Values
	// must be continuous (no atoms) so that the positive-rate threshold
	// below lands where the quantile says it does.
	weight := func(j int) float64 {
		h := uint64(j)*0x9e3779b97f4a7c15 + cfg.Seed
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return float64(h%(1<<20))/(1<<19) - 1 // uniform in [-1, 1)
	}

	y := make([]float32, cfg.N)
	// Threshold tuned so that roughly PositiveRate of logits exceed it:
	// estimated from a warm-up sample.
	const warm = 2000
	warmLogits := make([]float64, 0, warm)
	rowFeatures := make([]int, cfg.Fields)
	genRow := func() float64 {
		var logit float64
		for f := 0; f < cfg.Fields; f++ {
			j := offsets[f] + samplers[f].Sample(r)
			rowFeatures[f] = j
			logit += weight(j)
		}
		return logit
	}
	for i := 0; i < warm; i++ {
		warmLogits = append(warmLogits, genRow())
	}
	threshold := quantile(warmLogits, 1-cfg.PositiveRate)

	for i := 0; i < cfg.N; i++ {
		logit := genRow()
		emit(rowFeatures)
		if logit > threshold {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return offsets[cfg.Fields], y
}

// zipfSampler draws indices 0..n-1 with probability ∝ 1/(i+1)^s via CDF
// inversion.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

// Sample draws one index.
func (z *zipfSampler) Sample(r *rng.Xoshiro256) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// quantile returns the q-quantile of xs (xs is modified by sorting).
func quantile(xs []float64, q float64) float64 {
	// insertion sort; warm-up samples are small
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	idx := int(q * float64(len(xs)-1))
	return xs[idx]
}
