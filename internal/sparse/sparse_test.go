package sparse

import (
	"math"
	"testing"
	"testing/quick"

	"tpascd/internal/rng"
)

// small reference matrix:
//
//	[ 1 0 2 ]
//	[ 0 3 0 ]
//	[ 4 0 5 ]
//	[ 0 0 6 ]
func refCOO() *COO {
	c := NewCOO(4, 3, 6)
	c.Append(0, 0, 1)
	c.Append(0, 2, 2)
	c.Append(1, 1, 3)
	c.Append(2, 0, 4)
	c.Append(2, 2, 5)
	c.Append(3, 2, 6)
	return c
}

func randomCOO(r *rng.Xoshiro256, rows, cols, nnz int) *COO {
	c := NewCOO(rows, cols, nnz)
	for k := 0; k < nnz; k++ {
		c.Append(r.Intn(rows), r.Intn(cols), float32(r.NormFloat64()))
	}
	return c
}

func denseMulVec(a [][]float32, x []float32) []float32 {
	y := make([]float32, len(a))
	for i, row := range a {
		var s float64
		for j, v := range row {
			s += float64(v) * float64(x[j])
		}
		y[i] = float32(s)
	}
	return y
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func vecApproxEq(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEq(float64(a[i]), float64(b[i]), tol) {
			return false
		}
	}
	return true
}

func TestCOOValidate(t *testing.T) {
	c := refCOO()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid COO rejected: %v", err)
	}
	bad := refCOO()
	bad.Append(10, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	bad2 := refCOO()
	bad2.Row = bad2.Row[:len(bad2.Row)-1]
	if err := bad2.Validate(); err == nil {
		t.Fatal("mismatched slice lengths accepted")
	}
}

func TestToCSRBasic(t *testing.T) {
	csr := refCOO().ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatalf("ToCSR produced invalid matrix: %v", err)
	}
	if csr.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", csr.NNZ())
	}
	idx, val := csr.Row(2)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 || val[0] != 4 || val[1] != 5 {
		t.Fatalf("Row(2) = %v %v", idx, val)
	}
	if n := len(csr.RowPtr); n != 5 {
		t.Fatalf("RowPtr length %d, want 5", n)
	}
}

func TestToCSCBasic(t *testing.T) {
	csc := refCOO().ToCSC()
	if err := csc.Validate(); err != nil {
		t.Fatalf("ToCSC produced invalid matrix: %v", err)
	}
	idx, val := csc.Col(2)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 2 || idx[2] != 3 {
		t.Fatalf("Col(2) idx = %v", idx)
	}
	if val[0] != 2 || val[1] != 5 || val[2] != 6 {
		t.Fatalf("Col(2) val = %v", val)
	}
}

func TestDuplicateSummation(t *testing.T) {
	c := NewCOO(2, 2, 4)
	c.Append(0, 0, 1)
	c.Append(0, 0, 2.5)
	c.Append(1, 1, -1)
	c.Append(1, 1, 1)
	csr := c.ToCSR()
	if csr.NNZ() != 2 {
		t.Fatalf("NNZ after dedup = %d, want 2", csr.NNZ())
	}
	_, val := csr.Row(0)
	if val[0] != 3.5 {
		t.Fatalf("deduped value = %v, want 3.5", val[0])
	}
	csc := c.ToCSC()
	if csc.NNZ() != 2 {
		t.Fatalf("CSC NNZ after dedup = %d, want 2", csc.NNZ())
	}
}

func TestRoundTripCSRviaCSC(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		coo := randomCOO(r, 15, 11, 60)
		a := coo.ToCSR()
		b := a.ToCSC().ToCSR()
		if a.NNZ() != b.NNZ() {
			t.Fatalf("round trip changed NNZ: %d -> %d", a.NNZ(), b.NNZ())
		}
		for i := 0; i < a.NumRows; i++ {
			ai, av := a.Row(i)
			bi, bv := b.Row(i)
			if len(ai) != len(bi) {
				t.Fatalf("row %d length changed", i)
			}
			for k := range ai {
				if ai[k] != bi[k] || av[k] != bv[k] {
					t.Fatalf("row %d entry %d changed: (%d,%v) vs (%d,%v)", i, k, ai[k], av[k], bi[k], bv[k])
				}
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		coo := randomCOO(r, 20, 13, 80)
		csr := coo.ToCSR()
		csc := csr.ToCSC()
		dense := csr.ToDense()
		x := make([]float32, 13)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		want := denseMulVec(dense, x)
		y1 := make([]float32, 20)
		csr.MulVec(y1, x)
		if !vecApproxEq(y1, want, 1e-5) {
			t.Fatalf("CSR MulVec mismatch: %v vs %v", y1, want)
		}
		y2 := make([]float32, 20)
		csc.MulVec(y2, x)
		if !vecApproxEq(y2, want, 1e-5) {
			t.Fatalf("CSC MulVec mismatch: %v vs %v", y2, want)
		}
	}
}

func TestMulTVecAgainstDense(t *testing.T) {
	r := rng.New(3)
	coo := randomCOO(r, 17, 9, 70)
	csr := coo.ToCSR()
	csc := csr.ToCSC()
	dense := csr.ToDense()
	// transpose dense
	dt := make([][]float32, 9)
	for j := range dt {
		dt[j] = make([]float32, 17)
		for i := 0; i < 17; i++ {
			dt[j][i] = dense[i][j]
		}
	}
	x := make([]float32, 17)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	want := denseMulVec(dt, x)
	y1 := make([]float32, 9)
	csr.MulTVec(y1, x)
	if !vecApproxEq(y1, want, 1e-5) {
		t.Fatalf("CSR MulTVec mismatch")
	}
	y2 := make([]float32, 9)
	csc.MulTVec(y2, x)
	if !vecApproxEq(y2, want, 1e-5) {
		t.Fatalf("CSC MulTVec mismatch")
	}
}

func TestNormsSq(t *testing.T) {
	csr := refCOO().ToCSR()
	rn := csr.RowNormsSq()
	wantRows := []float64{5, 9, 41, 36}
	for i := range wantRows {
		if !approxEq(rn[i], wantRows[i], 1e-12) {
			t.Fatalf("RowNormsSq[%d] = %v, want %v", i, rn[i], wantRows[i])
		}
	}
	csc := refCOO().ToCSC()
	cn := csc.ColNormsSq()
	wantCols := []float64{17, 9, 65}
	for j := range wantCols {
		if !approxEq(cn[j], wantCols[j], 1e-12) {
			t.Fatalf("ColNormsSq[%d] = %v, want %v", j, cn[j], wantCols[j])
		}
	}
}

// Property: for random sparse A and vectors x,u: uᵀ(Ax) == (Aᵀu)ᵀx.
func TestAdjointProperty(t *testing.T) {
	r := rng.New(4)
	f := func(seed uint64) bool {
		rows := 5 + r.Intn(20)
		cols := 5 + r.Intn(20)
		csr := randomCOO(r, rows, cols, rows*3).ToCSR()
		x := make([]float32, cols)
		u := make([]float32, rows)
		for i := range x {
			x[i] = float32(r.NormFloat64())
		}
		for i := range u {
			u[i] = float32(r.NormFloat64())
		}
		ax := make([]float32, rows)
		csr.MulVec(ax, x)
		atu := make([]float32, cols)
		csr.MulTVec(atu, u)
		var lhs, rhs float64
		for i := range u {
			lhs += float64(u[i]) * float64(ax[i])
		}
		for j := range x {
			rhs += float64(atu[j]) * float64(x[j])
		}
		return approxEq(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRows(t *testing.T) {
	csr := refCOO().ToCSR()
	sub := csr.SelectRows([]int{2, 0})
	if sub.NumRows != 2 || sub.NumCols != 3 {
		t.Fatalf("shape = %dx%d", sub.NumRows, sub.NumCols)
	}
	idx, val := sub.Row(0)
	if len(idx) != 2 || idx[0] != 0 || val[0] != 4 {
		t.Fatalf("row 0 of selection wrong: %v %v", idx, val)
	}
	idx, val = sub.Row(1)
	if len(idx) != 2 || idx[1] != 2 || val[1] != 2 {
		t.Fatalf("row 1 of selection wrong: %v %v", idx, val)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	csr := refCOO().ToCSR()
	csr.ColIdx[0] = 99
	if err := csr.Validate(); err == nil {
		t.Fatal("out-of-range column index accepted")
	}
	csr2 := refCOO().ToCSR()
	csr2.RowPtr[1] = csr2.RowPtr[2] + 1
	if err := csr2.Validate(); err == nil {
		t.Fatal("non-monotone RowPtr accepted")
	}
	csr3 := refCOO().ToCSR()
	if len(csr3.ColIdx) >= 2 && csr3.RowPtr[1] >= 2 {
		t.Skip("need a row with 2 entries at start")
	}
	// Build one explicitly with unsorted indices.
	bad := &CSR{NumRows: 1, NumCols: 3, RowPtr: []int{0, 2}, ColIdx: []int32{2, 0}, Val: []float32{1, 2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unsorted indices accepted")
	}
}

func TestMulVecPanicsOnDims(t *testing.T) {
	csr := refCOO().ToCSR()
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch not caught")
		}
	}()
	csr.MulVec(make([]float32, 4), make([]float32, 99))
}

func TestFromDense(t *testing.T) {
	dense := [][]float32{{1, 0, 2}, {0, 3, 0}}
	csr := FromDense(dense, 3)
	if csr.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", csr.NNZ())
	}
	back := csr.ToDense()
	for i := range dense {
		for j := range dense[i] {
			if dense[i][j] != back[i][j] {
				t.Fatalf("FromDense/ToDense mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBytes(t *testing.T) {
	csr := refCOO().ToCSR()
	if csr.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
	csc := refCOO().ToCSC()
	if csc.Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	r := rng.New(1)
	csr := randomCOO(r, 4096, 2048, 4096*32).ToCSR()
	x := make([]float32, 2048)
	y := make([]float32, 4096)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulVec(y, x)
	}
}

func BenchmarkCSCMulVec(b *testing.B) {
	r := rng.New(1)
	csc := randomCOO(r, 4096, 2048, 4096*32).ToCSC()
	x := make([]float32, 2048)
	y := make([]float32, 4096)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csc.MulVec(y, x)
	}
}
