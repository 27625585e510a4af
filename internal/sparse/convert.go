package sparse

import "sort"

// ToCSR converts a COO matrix to CSR, summing duplicate entries and sorting
// column indices within each row. The result is pattern-only (Val nil) when
// every summed value is exactly 1.
func (m *COO) ToCSR() *CSR {
	rowPtr := make([]int, m.NumRows+1)
	for _, r := range m.Row {
		rowPtr[r+1]++
	}
	for i := 0; i < m.NumRows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int, m.NumRows)
	copy(next, rowPtr[:m.NumRows])
	for k := range m.Val {
		r := m.Row[k]
		p := next[r]
		colIdx[p] = m.Col[k]
		val[p] = m.Val[k]
		next[r] = p + 1
	}
	out := &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	out.sortAndDedupRows()
	out.Val, out.ones = patternOnly(out.RowPtr, out.Val)
	return out
}

// ToCSC converts a COO matrix to CSC, summing duplicate entries and sorting
// row indices within each column. The result is pattern-only (Val nil) when
// every summed value is exactly 1.
func (m *COO) ToCSC() *CSC {
	colPtr := make([]int, m.NumCols+1)
	for _, c := range m.Col {
		colPtr[c+1]++
	}
	for j := 0; j < m.NumCols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int, m.NumCols)
	copy(next, colPtr[:m.NumCols])
	for k := range m.Val {
		c := m.Col[k]
		p := next[c]
		rowIdx[p] = m.Row[k]
		val[p] = m.Val[k]
		next[c] = p + 1
	}
	out := &CSC{NumRows: m.NumRows, NumCols: m.NumCols, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
	out.sortAndDedupCols()
	out.Val, out.ones = patternOnly(out.ColPtr, out.Val)
	return out
}

// sortAndDedupRows sorts column indices within each row and merges
// duplicates by summation, compacting storage in place.
func (m *CSR) sortAndDedupRows() {
	m.RowPtr, m.ColIdx, m.Val = sortAndDedup(m.NumRows, m.RowPtr, m.ColIdx, m.Val)
}

func (m *CSC) sortAndDedupCols() {
	m.ColPtr, m.RowIdx, m.Val = sortAndDedup(m.NumCols, m.ColPtr, m.RowIdx, m.Val)
}

func sortAndDedup(major int, ptr []int, idx []int32, val []float32) ([]int, []int32, []float32) {
	write := 0
	newPtr := make([]int, major+1)
	for i := 0; i < major; i++ {
		lo, hi := ptr[i], ptr[i+1]
		seg := sliceSorter{idx: idx[lo:hi], val: val[lo:hi]}
		sort.Sort(seg)
		start := write
		for k := lo; k < hi; k++ {
			if write > start && idx[write-1] == idx[k] {
				val[write-1] += val[k]
				continue
			}
			idx[write] = idx[k]
			val[write] = val[k]
			write++
		}
		newPtr[i+1] = write
	}
	return newPtr, idx[:write], val[:write]
}

type sliceSorter struct {
	idx []int32
	val []float32
}

func (s sliceSorter) Len() int           { return len(s.idx) }
func (s sliceSorter) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s sliceSorter) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// ToCSC converts a CSR matrix to CSC (a transpose of the storage layout; the
// logical matrix is unchanged). A pattern-only CSR gives a pattern-only CSC.
func (m *CSR) ToCSC() *CSC {
	colPtr, rowIdx, val, ones := transpose(m.NumRows, m.NumCols, m.RowPtr, m.ColIdx, m.Val)
	return &CSC{NumRows: m.NumRows, NumCols: m.NumCols, ColPtr: colPtr, RowIdx: rowIdx, Val: val, ones: ones}
}

// ToCSR converts a CSC matrix to CSR. A pattern-only CSC gives a
// pattern-only CSR.
func (m *CSC) ToCSR() *CSR {
	rowPtr, colIdx, val, ones := transpose(m.NumCols, m.NumRows, m.ColPtr, m.RowIdx, m.Val)
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val, ones: ones}
}

// transpose swaps the major and minor dimensions of a compressed layout.
// Scanning the major slices in order leaves the new minor indices sorted.
// A nil val stays nil, and the result then gets its own ones buffer.
func transpose(major, minor int, ptr []int, idx []int32, val []float32) ([]int, []int32, []float32, []float32) {
	tPtr := make([]int, minor+1)
	for _, c := range idx {
		tPtr[c+1]++
	}
	for j := 0; j < minor; j++ {
		tPtr[j+1] += tPtr[j]
	}
	tIdx := make([]int32, len(idx))
	var tVal []float32
	if val != nil {
		tVal = make([]float32, len(idx))
	}
	next := make([]int, minor)
	copy(next, tPtr[:minor])
	for i := 0; i < major; i++ {
		for k := ptr[i]; k < ptr[i+1]; k++ {
			c := idx[k]
			p := next[c]
			tIdx[p] = int32(i)
			if val != nil {
				tVal[p] = val[k]
			}
			next[c] = p + 1
		}
	}
	if val == nil {
		return tPtr, tIdx, nil, onesFor(tPtr)
	}
	return tPtr, tIdx, tVal, nil
}

// ToCOO converts a CSR matrix to COO with entries in row-major order.
func (m *CSR) ToCOO() *COO {
	out := NewCOO(m.NumRows, m.NumCols, m.NNZ())
	for i := 0; i < m.NumRows; i++ {
		idx, val := m.Row(i)
		for k, c := range idx {
			out.Append(i, int(c), val[k])
		}
	}
	return out
}

// ToDense expands a CSR matrix into a dense row-major [][]float32. Intended
// for tests and tiny reference problems only.
func (m *CSR) ToDense() [][]float32 {
	out := make([][]float32, m.NumRows)
	backing := make([]float32, m.NumRows*m.NumCols)
	for i := range out {
		out[i] = backing[i*m.NumCols : (i+1)*m.NumCols]
		idx, val := m.Row(i)
		for k, c := range idx {
			out[i][c] = val[k]
		}
	}
	return out
}

// FromDense builds a CSR matrix from a dense row-major matrix, dropping
// exact zeros.
func FromDense(a [][]float32, cols int) *CSR {
	coo := NewCOO(len(a), cols, 0)
	for i, row := range a {
		for j, v := range row {
			if v != 0 {
				coo.Append(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

// SelectRows returns a new CSR containing the given rows of m, in order.
// Used to partition training data by example (the SVM distributed example
// and the train/test split of internal/metrics). The selection of a
// pattern-only matrix is pattern-only and shares its ones buffer.
func (m *CSR) SelectRows(rows []int) *CSR {
	rowPtr := make([]int, len(rows)+1)
	nnz := 0
	for i, r := range rows {
		nnz += m.RowPtr[r+1] - m.RowPtr[r]
		rowPtr[i+1] = nnz
	}
	colIdx := make([]int32, nnz)
	var val []float32
	if m.Val != nil {
		val = make([]float32, nnz)
	}
	p := 0
	for _, r := range rows {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		copy(colIdx[p:], m.ColIdx[lo:hi])
		if val != nil {
			copy(val[p:], m.Val[lo:hi])
		}
		p += hi - lo
	}
	return &CSR{NumRows: len(rows), NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val, ones: m.ones}
}
