package datasets

import (
	"math"
	"slices"
	"testing"

	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func TestWebspamShapeAndDeterminism(t *testing.T) {
	cfg := WebspamConfig{N: 500, M: 300, AvgNNZPerRow: 10, Skew: 1, NoiseRate: 0.05, Seed: 7}
	a, y, err := Webspam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows != 500 || a.NumCols != 300 || len(y) != 500 {
		t.Fatalf("shape = %dx%d labels %d", a.NumRows, a.NumCols, len(y))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, y2, err := Webspam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("same seed different NNZ: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range y {
		if y[i] != y2[i] {
			t.Fatalf("same seed different labels at %d", i)
		}
	}
	for i := 0; i < a.NumRows; i++ {
		ai, av := a.Row(i)
		bi, bv := b.Row(i)
		if len(ai) != len(bi) {
			t.Fatalf("same seed different lengths of row %d: %d vs %d", i, len(ai), len(bi))
		}
		for k := range ai {
			if av[k] != bv[k] || ai[k] != bi[k] {
				t.Fatalf("same seed different entries in row %d at %d", i, k)
			}
		}
	}
}

func TestWebspamDensityNearTarget(t *testing.T) {
	cfg := WebspamConfig{N: 2000, M: 1000, AvgNNZPerRow: 20, Skew: 1, NoiseRate: 0, Seed: 3}
	a, _, err := Webspam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(a.NNZ()) / float64(a.NumRows)
	if avg < 10 || avg > 30 {
		t.Fatalf("average nnz/row = %v, want ≈20", avg)
	}
}

func TestWebspamLabelsAreSigns(t *testing.T) {
	a, y, err := Webspam(WebspamConfig{N: 300, M: 200, AvgNNZPerRow: 8, Skew: 1, NoiseRate: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	pos := 0
	for _, v := range y {
		if v != 1 && v != -1 {
			t.Fatalf("label %v not ±1", v)
		}
		if v == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(y) {
		t.Fatalf("degenerate labels: %d positives of %d", pos, len(y))
	}
}

func TestWebspamPopularitySkew(t *testing.T) {
	a, _, err := Webspam(WebspamConfig{N: 2000, M: 500, AvgNNZPerRow: 20, Skew: 1, NoiseRate: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, a.NumCols)
	for _, j := range a.ColIdx {
		counts[j]++
	}
	// Power-law popularity: the most popular feature should appear far
	// more often than the median one.
	max, nonzero := 0, 0
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c > 0 {
			nonzero++
		}
	}
	if max < 10*((a.NNZ())/nonzero) {
		t.Fatalf("popularity not skewed: max %d vs mean %d", max, a.NNZ()/nonzero)
	}
}

func TestWebspamConfigValidation(t *testing.T) {
	if _, _, err := Webspam(WebspamConfig{N: 0, M: 10, AvgNNZPerRow: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, _, err := Webspam(WebspamConfig{N: 10, M: 10, AvgNNZPerRow: 11}); err == nil {
		t.Fatal("nnz > M accepted")
	}
}

func TestCriteoOneHotStructure(t *testing.T) {
	cfg := CriteoConfig{N: 1000, Fields: 5, CardinalityBase: 100, PositiveRate: 0.3, Seed: 2}
	a, y, err := Criteo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows != 1000 || len(y) != 1000 {
		t.Fatalf("shape = %dx%d", a.NumRows, a.NumCols)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every value is exactly 1 (the paper's footnote 2 property), so the
	// matrix keeps no value array.
	if a.Val != nil {
		t.Fatalf("criteo-like data keeps a value array of %d entries", len(a.Val))
	}
	// Every row has exactly Fields non-zeros (one-hot per field).
	for i := 0; i < a.NumRows; i++ {
		if n := a.RowPtr[i+1] - a.RowPtr[i]; n != cfg.Fields {
			t.Fatalf("row %d has %d non-zeros, want %d", i, n, cfg.Fields)
		}
	}
}

// Criteo assembles its CSR as the rows are drawn. The oracle feeds the same
// rows through a COO and its sort-and-dedup conversion, as the generator
// once did: the two must agree in every field.
func TestCriteoMatchesCOOPath(t *testing.T) {
	for _, seed := range []uint64{2, 20151101} {
		cfg := CriteoConfig{N: 3000, Fields: 7, CardinalityBase: 300, PositiveRate: 0.25, Seed: seed}
		got, gy, err := Criteo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		coo := sparse.NewCOO(cfg.N, 0, cfg.N*cfg.Fields)
		row := 0
		m, wy := criteoRows(cfg, func(features []int) {
			for _, j := range features {
				coo.Append(row, j, 1)
			}
			row++
		})
		coo.NumCols = m
		want := coo.ToCSR()
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.NumRows != want.NumRows || got.NumCols != want.NumCols || got.NNZ() != want.NNZ() {
			t.Fatalf("seed %d: shape %dx%d nnz %d, want %dx%d nnz %d", seed,
				got.NumRows, got.NumCols, got.NNZ(), want.NumRows, want.NumCols, want.NNZ())
		}
		if got.Val != nil || want.Val != nil {
			t.Fatalf("seed %d: value arrays kept (%d direct, %d via COO)", seed, len(got.Val), len(want.Val))
		}
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("seed %d: row pointers or column indices differ from the COO path", seed)
		}
		for i := 0; i < got.NumRows; i++ {
			_, gv := got.Row(i)
			_, wv := want.Row(i)
			if !slices.Equal(gv, wv) {
				t.Fatalf("seed %d row %d: values %v, want %v", seed, i, gv, wv)
			}
		}
		if !slices.Equal(gy, wy) {
			t.Fatalf("seed %d: labels differ from the COO path", seed)
		}
	}
}

func TestCriteoPositiveRate(t *testing.T) {
	cfg := CriteoConfig{N: 20000, Fields: 8, CardinalityBase: 500, PositiveRate: 0.25, Seed: 4}
	_, y, err := Criteo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, v := range y {
		if v == 1 {
			pos++
		}
	}
	rate := float64(pos) / float64(len(y))
	if math.Abs(rate-0.25) > 0.1 {
		t.Fatalf("positive rate = %v, want ≈0.25", rate)
	}
}

func TestCriteoDeterminism(t *testing.T) {
	cfg := CriteoConfig{N: 500, Fields: 4, CardinalityBase: 50, PositiveRate: 0.3, Seed: 11}
	a, ya, _ := Criteo(cfg)
	b, yb, _ := Criteo(cfg)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed different NNZ")
	}
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same seed different labels")
		}
	}
}

func TestCriteoConfigValidation(t *testing.T) {
	if _, _, err := Criteo(CriteoConfig{N: 0, Fields: 1, CardinalityBase: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
}

// Generated datasets must make solvable ridge problems.
func TestGeneratedProblemsAreSolvable(t *testing.T) {
	a, y, err := Webspam(WebspamConfig{N: 400, M: 200, AvgNNZPerRow: 10, Skew: 1, NoiseRate: 0.05, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ridge.NewProblem(a, y, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if _, val, err := p.SolveReference(1e-8, 2000); err != nil || math.IsNaN(val) {
		t.Fatalf("webspam-like problem not solvable: %v %v", val, err)
	}
}

func TestZipfSampler(t *testing.T) {
	z := newZipfSampler(100, 1.0)
	r := rng.New(1)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf head %d not more popular than tail %d", counts[0], counts[50])
	}
	// Head probability ≈ 1/H(100) ≈ 0.192
	rate := float64(counts[0]) / 50000
	if rate < 0.12 || rate > 0.28 {
		t.Fatalf("head rate = %v, want ≈0.19", rate)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Fatalf("min = %v", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Fatalf("max = %v", q)
	}
}

func BenchmarkWebspamGenerate(b *testing.B) {
	cfg := WebspamConfig{N: 4096, M: 2048, AvgNNZPerRow: 32, Skew: 1, NoiseRate: 0.05, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Webspam(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
