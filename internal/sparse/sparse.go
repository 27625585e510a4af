// Package sparse implements the sparse-matrix formats and kernels that the
// stochastic learning system is built on.
//
// The paper represents the training data matrix A (N examples × M features)
// in 32-bit floating point, stored as compressed sparse column (CSC) when
// solving the primal ridge-regression problem (coordinate updates walk
// columns a_m) and compressed sparse row (CSR) when solving the dual
// (updates walk rows ā_n). COO is used as the interchange and I/O format.
//
// All value data is float32 to match the paper; reductions that feed the
// objective/duality-gap computations accumulate in float64 to keep the
// convergence metric trustworthy.
//
// CSR and CSC have a pattern-only form, the memory halving of the paper's
// footnote 2 for criteo ("the values in the training data matrix are
// always 1 and so one could halve the memory usage by re-writing the code
// to explicitly assume this"): Val is nil and every stored value is exactly
// 1. Row and Col then hand out slices of a ones buffer the matrix owns, so
// callers need no branch, and multiplying by an exact 1 changes no float.
// The converters from COO produce the form whenever every value is 1, and
// every kernel and converter here accepts it. Bytes models a device copy,
// which stores a value per entry, so it does not depend on the form.
package sparse

import (
	"errors"
	"fmt"
)

// Errors returned by format validation.
var (
	ErrDims        = errors.New("sparse: dimension mismatch")
	ErrUnsorted    = errors.New("sparse: indices not sorted within a major slice")
	ErrIndexRange  = errors.New("sparse: index out of range")
	ErrPtrMonotone = errors.New("sparse: pointer array not monotone")
)

// COO is a coordinate-list sparse matrix. Duplicate entries are permitted
// until Dedup is called; most constructors and converters require
// deduplicated, in-range entries.
type COO struct {
	NumRows, NumCols int
	Row, Col         []int32
	Val              []float32
}

// NewCOO returns an empty COO with the given shape and capacity hint.
func NewCOO(rows, cols, nnzHint int) *COO {
	return &COO{
		NumRows: rows,
		NumCols: cols,
		Row:     make([]int32, 0, nnzHint),
		Col:     make([]int32, 0, nnzHint),
		Val:     make([]float32, 0, nnzHint),
	}
}

// Append adds a single entry. It does not check for duplicates.
func (m *COO) Append(row, col int, val float32) {
	m.Row = append(m.Row, int32(row))
	m.Col = append(m.Col, int32(col))
	m.Val = append(m.Val, val)
}

// NNZ returns the number of stored entries.
func (m *COO) NNZ() int { return len(m.Val) }

// Validate checks index ranges and internal slice-length consistency.
func (m *COO) Validate() error {
	if len(m.Row) != len(m.Col) || len(m.Row) != len(m.Val) {
		return fmt.Errorf("%w: row/col/val lengths %d/%d/%d", ErrDims, len(m.Row), len(m.Col), len(m.Val))
	}
	for k := range m.Row {
		if m.Row[k] < 0 || int(m.Row[k]) >= m.NumRows {
			return fmt.Errorf("%w: row %d at entry %d (NumRows=%d)", ErrIndexRange, m.Row[k], k, m.NumRows)
		}
		if m.Col[k] < 0 || int(m.Col[k]) >= m.NumCols {
			return fmt.Errorf("%w: col %d at entry %d (NumCols=%d)", ErrIndexRange, m.Col[k], k, m.NumCols)
		}
	}
	return nil
}

// CSR is a compressed-sparse-row matrix: row i occupies
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly increasing within a row.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int
	ColIdx           []int32
	// Val holds one value per index, or is nil when every stored value is
	// exactly 1 (the pattern-only form; see the package comment).
	Val  []float32
	ones []float32 // pattern-only: as long as the longest row, all 1
}

// CSC is a compressed-sparse-column matrix: column j occupies
// RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[ColPtr[j]:ColPtr[j+1]],
// with row indices strictly increasing within a column.
type CSC struct {
	NumRows, NumCols int
	ColPtr           []int
	RowIdx           []int32
	// Val holds one value per index, or is nil when every stored value is
	// exactly 1 (the pattern-only form; see the package comment).
	Val  []float32
	ones []float32 // pattern-only: as long as the longest column, all 1
}

// NewPatternCSR returns the pattern-only CSR matrix with the given row
// pointers and sorted column indices, which it takes over: every stored
// value is 1. For generators whose rows come out sorted; other callers
// build a COO and convert it.
func NewPatternCSR(numRows, numCols int, rowPtr []int, colIdx []int32) *CSR {
	return &CSR{NumRows: numRows, NumCols: numCols, RowPtr: rowPtr, ColIdx: colIdx, ones: onesFor(rowPtr)}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.RowIdx) }

// Row returns the index and value slices of row i. The slices alias the
// matrix storage (for a pattern-only matrix, its ones buffer) and must not
// be modified.
func (m *CSR) Row(i int) (idx []int32, val []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	if m.Val == nil {
		return m.ColIdx[lo:hi], m.ones[:hi-lo]
	}
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Col returns the index and value slices of column j. The slices alias the
// matrix storage (for a pattern-only matrix, its ones buffer) and must not
// be modified.
func (m *CSC) Col(j int) (idx []int32, val []float32) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	if m.Val == nil {
		return m.RowIdx[lo:hi], m.ones[:hi-lo]
	}
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// Validate checks structural invariants: monotone pointers, sorted unique
// minor indices, in-range indices, and one value per index (or, for a
// pattern-only matrix, a ones buffer that covers every row).
func (m *CSR) Validate() error {
	return validateCompressed(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, m.Val, m.ones)
}

// Validate checks structural invariants.
func (m *CSC) Validate() error {
	return validateCompressed(m.NumCols, m.NumRows, m.ColPtr, m.RowIdx, m.Val, m.ones)
}

func validateCompressed(major, minor int, ptr []int, idx []int32, val, ones []float32) error {
	if len(ptr) != major+1 {
		return fmt.Errorf("%w: ptr length %d, want %d", ErrDims, len(ptr), major+1)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("%w: ptr[0] = %d", ErrPtrMonotone, ptr[0])
	}
	if ptr[major] != len(idx) || (val != nil && len(idx) != len(val)) {
		return fmt.Errorf("%w: ptr end %d, idx %d, val %d", ErrDims, ptr[major], len(idx), len(val))
	}
	for _, x := range ones {
		if x != 1 {
			return fmt.Errorf("%w: ones buffer holds %v", ErrDims, x)
		}
	}
	for i := 0; i < major; i++ {
		if ptr[i] > ptr[i+1] {
			return fmt.Errorf("%w: ptr[%d]=%d > ptr[%d]=%d", ErrPtrMonotone, i, ptr[i], i+1, ptr[i+1])
		}
		if val == nil && ptr[i+1]-ptr[i] > len(ones) {
			return fmt.Errorf("%w: slice %d has %d entries, ones buffer %d", ErrDims, i, ptr[i+1]-ptr[i], len(ones))
		}
		for k := ptr[i]; k < ptr[i+1]; k++ {
			if idx[k] < 0 || int(idx[k]) >= minor {
				return fmt.Errorf("%w: index %d in slice %d", ErrIndexRange, idx[k], i)
			}
			if k > ptr[i] && idx[k] <= idx[k-1] {
				return fmt.Errorf("%w: slice %d has %d after %d", ErrUnsorted, i, idx[k], idx[k-1])
			}
		}
	}
	return nil
}

// MulVec computes y = A·x for a CSR matrix. len(x) must be NumCols and
// len(y) must be NumRows.
func (m *CSR) MulVec(y, x []float32) {
	if len(x) != m.NumCols || len(y) != m.NumRows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < m.NumRows; i++ {
		idx, val := m.Row(i)
		var sum float64
		for k, c := range idx {
			sum += float64(val[k]) * float64(x[c])
		}
		y[i] = float32(sum)
	}
}

// MulTVec computes y = Aᵀ·x for a CSR matrix. len(x) must be NumRows and
// len(y) must be NumCols.
func (m *CSR) MulTVec(y, x []float32) {
	if len(x) != m.NumRows || len(y) != m.NumCols {
		panic("sparse: MulTVec dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.NumRows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		idx, val := m.Row(i)
		for k, c := range idx {
			y[c] += val[k] * xi
		}
	}
}

// MulVec computes y = A·x for a CSC matrix.
func (m *CSC) MulVec(y, x []float32) {
	if len(x) != m.NumCols || len(y) != m.NumRows {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.NumCols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		idx, val := m.Col(j)
		for k, r := range idx {
			y[r] += val[k] * xj
		}
	}
}

// MulTVec computes y = Aᵀ·x for a CSC matrix.
func (m *CSC) MulTVec(y, x []float32) {
	if len(x) != m.NumRows || len(y) != m.NumCols {
		panic("sparse: MulTVec dimension mismatch")
	}
	for j := 0; j < m.NumCols; j++ {
		idx, val := m.Col(j)
		var sum float64
		for k, r := range idx {
			sum += float64(val[k]) * float64(x[r])
		}
		y[j] = float32(sum)
	}
}

// RowNormsSq returns ‖ā_i‖² for every row of a CSR matrix, accumulated in
// float64. These are the per-coordinate curvature terms of the dual update
// rule (eq. 4).
func (m *CSR) RowNormsSq() []float64 {
	out := make([]float64, m.NumRows)
	for i := range out {
		_, val := m.Row(i)
		out[i] = normSq(val)
	}
	return out
}

// ColNormsSq returns ‖a_j‖² for every column of a CSC matrix. These are the
// per-coordinate curvature terms of the primal update rule (eq. 2).
func (m *CSC) ColNormsSq() []float64 {
	out := make([]float64, m.NumCols)
	for j := range out {
		_, val := m.Col(j)
		out[j] = normSq(val)
	}
	return out
}

func normSq(val []float32) float64 {
	var s float64
	for _, x := range val {
		v := float64(x)
		s += v * v
	}
	return s
}

// Bytes returns the approximate footprint in bytes of a device copy of the
// matrix (pointer, index and value storage, a value per entry whatever the
// host form). Used by the capacity checks that decide whether a partition
// fits in simulated device memory, and by the modeled clock.
func (m *CSR) Bytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(m.NNZ())*8
}

// Bytes returns the approximate footprint in bytes of a device copy of the
// matrix, as for CSR.
func (m *CSC) Bytes() int64 {
	return int64(len(m.ColPtr))*8 + int64(m.NNZ())*8
}

// patternOnly returns (nil, ones) when every value in val is exactly 1,
// with ones as long as the longest slice of ptr, and (val, nil) otherwise.
// Converters pass their value array through it so that all-ones data ends
// up in the pattern-only form.
func patternOnly(ptr []int, val []float32) (vals, ones []float32) {
	for _, x := range val {
		if x != 1 {
			return val, nil
		}
	}
	return nil, onesFor(ptr)
}

// onesFor returns a ones buffer as long as the longest slice of ptr.
func onesFor(ptr []int) []float32 {
	longest := 0
	for i := 1; i < len(ptr); i++ {
		longest = max(longest, ptr[i]-ptr[i-1])
	}
	ones := make([]float32, longest)
	for i := range ones {
		ones[i] = 1
	}
	return ones
}
