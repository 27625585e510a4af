package sparse

import "sort"

// ToCSR converts a COO matrix to CSR, summing duplicate entries and sorting
// column indices within each row.
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
	return out
}

// ToCSC converts a COO matrix to CSC, summing duplicate entries and sorting
// row indices within each column.
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
// logical matrix is unchanged).
func (m *CSR) ToCSC() *CSC {
	colPtr := make([]int, m.NumCols+1)
	for _, c := range m.ColIdx {
		colPtr[c+1]++
	}
	for j := 0; j < m.NumCols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int, m.NumCols)
	copy(next, colPtr[:m.NumCols])
	for i := 0; i < m.NumRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			p := next[c]
			rowIdx[p] = int32(i)
			val[p] = m.Val[k]
			next[c] = p + 1
		}
	}
	// Row scan order guarantees sorted row indices per column.
	return &CSC{NumRows: m.NumRows, NumCols: m.NumCols, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// ToCSR converts a CSC matrix to CSR.
func (m *CSC) ToCSR() *CSR {
	rowPtr := make([]int, m.NumRows+1)
	for _, r := range m.RowIdx {
		rowPtr[r+1]++
	}
	for i := 0; i < m.NumRows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int, m.NumRows)
	copy(next, rowPtr[:m.NumRows])
	for j := 0; j < m.NumCols; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			r := m.RowIdx[k]
			p := next[r]
			colIdx[p] = int32(j)
			val[p] = m.Val[k]
			next[r] = p + 1
		}
	}
	return &CSR{NumRows: m.NumRows, NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// ToCOO converts a CSR matrix to COO with entries in row-major order.
func (m *CSR) ToCOO() *COO {
	out := NewCOO(m.NumRows, m.NumCols, m.NNZ())
	for i := 0; i < m.NumRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Append(i, int(m.ColIdx[k]), m.Val[k])
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
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i][m.ColIdx[k]] = m.Val[k]
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
// and the train/test split of internal/metrics).
func (m *CSR) SelectRows(rows []int) *CSR {
	rowPtr := make([]int, len(rows)+1)
	nnz := 0
	for i, r := range rows {
		nnz += m.RowPtr[r+1] - m.RowPtr[r]
		rowPtr[i+1] = nnz
	}
	colIdx := make([]int32, nnz)
	val := make([]float32, nnz)
	p := 0
	for _, r := range rows {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		copy(colIdx[p:], m.ColIdx[lo:hi])
		copy(val[p:], m.Val[lo:hi])
		p += hi - lo
	}
	return &CSR{NumRows: len(rows), NumCols: m.NumCols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}
