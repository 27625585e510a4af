package sparse

import (
	"errors"
	"math"
	"slices"
	"testing"

	"tpascd/internal/rng"
)

// patternPairs returns all-ones matrices twice over: pattern-only, as the
// converters leave them, and the same pattern with its ones written out in
// Val. The first pair is
//
//	[ 1 0 1 1 ]
//	[ 0 0 0 0 ]
//	[ 1 1 0 0 ]
//	[ 0 0 0 1 ]
//	[ 1 0 1 0 ]
//
// and the second a random pattern with duplicate-free rows.
func patternPairs(t *testing.T) (pattern, explicit []*CSR) {
	t.Helper()
	lit := &CSR{NumRows: 5, NumCols: 4,
		RowPtr: []int{0, 3, 3, 5, 6, 8},
		ColIdx: []int32{0, 2, 3, 0, 1, 3, 0, 2},
		Val:    []float32{1, 1, 1, 1, 1, 1, 1, 1}}
	r := rng.New(11)
	coo := NewCOO(40, 25, 0)
	for i := 0; i < coo.NumRows; i++ {
		for _, j := range r.Perm(coo.NumCols, nil)[:r.Intn(9)] {
			coo.Append(i, j, 1)
		}
	}
	rand := coo.ToCSR()
	randExplicit := &CSR{NumRows: rand.NumRows, NumCols: rand.NumCols,
		RowPtr: rand.RowPtr, ColIdx: rand.ColIdx, Val: make([]float32, rand.NNZ())}
	for k := range randExplicit.Val {
		randExplicit.Val[k] = 1
	}
	for _, m := range []*CSR{FromDense(lit.ToDense(), lit.NumCols), rand} {
		if m.Val != nil {
			t.Fatalf("all-ones matrix keeps a value array of %d entries", len(m.Val))
		}
	}
	return []*CSR{FromDense(lit.ToDense(), lit.NumCols), rand}, []*CSR{lit, randExplicit}
}

func randVec(r *rng.Xoshiro256, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return x
}

func requireBits32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func requireBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// requireSameCSR checks that two CSR matrices hold the same entries: the
// same shape, pointers and indices, and the same value bits through Row.
func requireSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.NumRows != want.NumRows || got.NumCols != want.NumCols || got.NNZ() != want.NNZ() || got.Bytes() != want.Bytes() {
		t.Fatalf("%s: %dx%d nnz %d bytes %d, want %dx%d nnz %d bytes %d", what, got.NumRows, got.NumCols,
			got.NNZ(), got.Bytes(), want.NumRows, want.NumCols, want.NNZ(), want.Bytes())
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: pointers or indices differ", what)
	}
	for i := 0; i < got.NumRows; i++ {
		_, gv := got.Row(i)
		_, wv := want.Row(i)
		requireBits32(t, what+" row", gv, wv)
	}
}

// Every kernel and converter gives bit-identical output on a pattern-only
// matrix and on the same matrix with explicit ones, and both forms report
// the same NNZ and the same modeled Bytes.
func TestPatternOnlyMatchesExplicitOnes(t *testing.T) {
	pattern, explicit := patternPairs(t)
	r := rng.New(3)
	for n := range pattern {
		p, e := pattern[n], explicit[n]
		requireSameCSR(t, "pattern vs explicit", p, e)
		x, u := randVec(r, p.NumCols), randVec(r, p.NumRows)
		u[1] = 0 // the transposed kernels skip zero weights

		yp, ye := make([]float32, p.NumRows), make([]float32, p.NumRows)
		p.MulVec(yp, x)
		e.MulVec(ye, x)
		requireBits32(t, "CSR.MulVec", yp, ye)
		zp, ze := make([]float32, p.NumCols), make([]float32, p.NumCols)
		p.MulTVec(zp, u)
		e.MulTVec(ze, u)
		requireBits32(t, "CSR.MulTVec", zp, ze)
		requireBits64(t, "RowNormsSq", p.RowNormsSq(), e.RowNormsSq())

		pc, ec := p.ToCSC(), e.ToCSC()
		if pc.Val != nil || ec.Val == nil {
			t.Fatalf("ToCSC: pattern-only value array %d entries, explicit %d", len(pc.Val), len(ec.Val))
		}
		if err := pc.Validate(); err != nil {
			t.Fatal(err)
		}
		if pc.NNZ() != ec.NNZ() || pc.Bytes() != ec.Bytes() || !slices.Equal(pc.ColPtr, ec.ColPtr) || !slices.Equal(pc.RowIdx, ec.RowIdx) {
			t.Fatal("ToCSC: pattern-only and explicit layouts differ")
		}
		for j := 0; j < pc.NumCols; j++ {
			_, gv := pc.Col(j)
			_, wv := ec.Col(j)
			requireBits32(t, "CSC column", gv, wv)
		}
		pc.MulVec(yp, x)
		ec.MulVec(ye, x)
		requireBits32(t, "CSC.MulVec", yp, ye)
		pc.MulTVec(zp, u)
		ec.MulTVec(ze, u)
		requireBits32(t, "CSC.MulTVec", zp, ze)
		requireBits64(t, "ColNormsSq", pc.ColNormsSq(), ec.ColNormsSq())

		back := pc.ToCSR()
		if back.Val != nil {
			t.Fatal("pattern-only CSC converts back with a value array")
		}
		requireSameCSR(t, "CSC.ToCSR", back, e)

		rows := []int{3, 0, 0, 2}
		sel := p.SelectRows(rows)
		if sel.Val != nil {
			t.Fatal("SelectRows of a pattern-only matrix keeps a value array")
		}
		requireSameCSR(t, "SelectRows", sel, e.SelectRows(rows))

		pcoo, ecoo := p.ToCOO(), e.ToCOO()
		if !slices.Equal(pcoo.Row, ecoo.Row) || !slices.Equal(pcoo.Col, ecoo.Col) {
			t.Fatal("ToCOO: entries differ")
		}
		requireBits32(t, "ToCOO", pcoo.Val, ecoo.Val)
		pd, ed := p.ToDense(), e.ToDense()
		for i := range pd {
			requireBits32(t, "ToDense", pd[i], ed[i])
		}
	}
}

func TestNonUnitValuesKeepVal(t *testing.T) {
	two := NewCOO(2, 3, 3)
	two.Append(0, 0, 1)
	two.Append(0, 2, 2)
	two.Append(1, 1, 1)
	dup := NewCOO(2, 3, 3)
	dup.Append(0, 1, 1)
	dup.Append(1, 2, 1)
	dup.Append(0, 1, 1) // sums to 2
	for name, c := range map[string]*COO{"single 2": two, "duplicates summing to 2": dup} {
		csr, csc := c.ToCSR(), c.ToCSC()
		if csr.Val == nil || csc.Val == nil || csr.ToCSC().Val == nil || csc.ToCSR().Val == nil {
			t.Fatalf("%s: value array dropped", name)
		}
		if err := csr.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, val := csr.Row(0); !slices.Contains(val, 2) {
			t.Fatalf("%s: row 0 values %v lost the 2", name, val)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	csr := NewCOO(3, 4, 0).ToCSR()
	csc := csr.ToCSC()
	for _, err := range []error{csr.Validate(), csc.Validate(), csc.ToCSR().Validate(), csr.SelectRows([]int{2, 1}).Validate()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if csr.NNZ() != 0 || csc.NNZ() != 0 || csr.Bytes() != 4*8 || csc.Bytes() != 5*8 {
		t.Fatalf("empty matrix: nnz %d/%d bytes %d/%d", csr.NNZ(), csc.NNZ(), csr.Bytes(), csc.Bytes())
	}
	y := []float32{7, 7, 7}
	csr.MulVec(y, make([]float32, 4))
	csc.MulVec(y, make([]float32, 4))
	z := make([]float32, 4)
	csr.MulTVec(z, []float32{1, 2, 3})
	csc.MulTVec(z, []float32{1, 2, 3})
	if slices.ContainsFunc(y, func(v float32) bool { return v != 0 }) || slices.ContainsFunc(z, func(v float32) bool { return v != 0 }) {
		t.Fatalf("products of an empty matrix: %v %v", y, z)
	}
	if idx, val := csr.Row(1); len(idx) != 0 || len(val) != 0 {
		t.Fatalf("Row(1) = %v %v", idx, val)
	}
	if n := csr.RowNormsSq(); len(n) != 3 || n[0] != 0 {
		t.Fatalf("RowNormsSq = %v", n)
	}
	if coo := csr.ToCOO(); coo.NNZ() != 0 {
		t.Fatalf("ToCOO has %d entries", coo.NNZ())
	}
	if d := csr.ToDense(); len(d) != 3 || slices.ContainsFunc(d[2], func(v float32) bool { return v != 0 }) {
		t.Fatalf("ToDense = %v", d)
	}
}

// A pattern-only matrix built by hand must come with a ones buffer that
// covers its longest slice; Validate reports a short one as an error, where
// Row and Col would panic.
func TestValidateCatchesShortOnes(t *testing.T) {
	csrs := map[string]*CSR{
		"short ones": {NumRows: 2, NumCols: 3, RowPtr: []int{0, 1, 3}, ColIdx: []int32{0, 1, 2}, ones: []float32{1}},
		"no ones":    {NumRows: 2, NumCols: 3, RowPtr: []int{0, 1, 3}, ColIdx: []int32{0, 1, 2}},
		"ones not 1": {NumRows: 2, NumCols: 3, RowPtr: []int{0, 1, 3}, ColIdx: []int32{0, 1, 2}, ones: []float32{1, 2}},
	}
	for name, m := range csrs {
		if err := m.Validate(); !errors.Is(err, ErrDims) {
			t.Fatalf("CSR %s: Validate = %v, want ErrDims", name, err)
		}
	}
	csc := &CSC{NumRows: 3, NumCols: 2, ColPtr: []int{0, 2, 3}, RowIdx: []int32{0, 2, 1}, ones: []float32{1}}
	if err := csc.Validate(); !errors.Is(err, ErrDims) {
		t.Fatalf("CSC with short ones: Validate = %v, want ErrDims", err)
	}
	if err := NewPatternCSR(2, 3, []int{0, 1, 3}, []int32{0, 1, 2}).Validate(); err != nil {
		t.Fatalf("NewPatternCSR: %v", err)
	}
}
