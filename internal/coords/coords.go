// Package coords provides a direction-agnostic "coordinate view" of a
// ridge-regression problem: the compressed non-zero pattern, curvature and
// linear terms needed to perform exact coordinate updates, independent of
// whether the coordinates are features (primal form, CSC storage) or
// examples (dual form, CSR storage), and independent of whether the view
// covers the whole problem or one worker's partition of it.
//
// The distributed workers operate on this view; wrapped as a Loss it is
// what the engine's epoch drivers run over as their local solvers, so the
// same update code serves the single-device experiments (Figs. 1-2), the
// distributed CPU experiments (Figs. 3-6) and the distributed GPU
// experiments (Figs. 8-10).
package coords

import (
	"fmt"

	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

// View describes a set of coordinates of a ridge-regression problem.
//
// For coordinate c, the non-zero entries are Idx/Val[Ptr[c]:Ptr[c+1]]; the
// indices address the shared vector (length SharedLen). A view over the
// whole problem shares the problem's arrays; a view over a subset holds
// compact copies of its coordinates' entries, so a worker that drops the
// problem keeps only its own share. Norms[c] holds ‖a_c‖². For the primal
// form YShared holds the labels indexed like the shared vector (length N);
// for the dual form YCoord holds the labels of the local coordinates
// (examples).
type View struct {
	Form      perfmodel.Form
	Num       int // number of coordinates in this view
	SharedLen int // length of the shared vector (N primal, M dual)
	NGlobal   int // global number of examples (the N in the update rules)
	Lambda    float64

	Ptr   []int
	Idx   []int32
	Val   []float32
	Norms []float64

	YShared []float32 // primal only: labels indexed by shared index
	YCoord  []float32 // dual only: labels indexed by local coordinate

	// UnitValues marks a pattern-only view: every stored value is exactly
	// 1 and Val is nil. A view has this form exactly when the problem's
	// matrix does (sparse.CSR and sparse.CSC keep all-ones data without a
	// value array: the paper's footnote 2). CoordNZ then hands out slices
	// of a ones buffer as long as the view's longest coordinate, so
	// consumers need no branches.
	UnitValues bool
	ones       []float32
}

// NNZ returns the number of stored matrix entries in the view.
func (v *View) NNZ() int64 { return int64(len(v.Idx)) }

// CoordNZ returns the non-zero pattern of coordinate c. For unit-value
// views the value slice aliases a shared all-ones buffer.
func (v *View) CoordNZ(c int) ([]int32, []float32) {
	lo, hi := v.Ptr[c], v.Ptr[c+1]
	if v.UnitValues {
		return v.Idx[lo:hi], v.ones[:hi-lo]
	}
	return v.Idx[lo:hi], v.Val[lo:hi]
}

// MulModel overwrites dst (length SharedLen) with Σ_c model[c]·a_c, the
// view's share of the shared vector: all of w = Aβ (w̄ = Aᵀα) for a
// whole-problem view, one worker's summand of it for a partition.
func (v *View) MulModel(dst, model []float32) {
	for i := range dst {
		dst[i] = 0
	}
	for c, m := range model {
		if m == 0 {
			continue
		}
		idx, val := v.CoordNZ(c)
		for k := range idx {
			dst[idx[k]] += val[k] * m
		}
	}
}

// Validate checks the structural invariants of the view.
func (v *View) Validate() error {
	if len(v.Ptr) != v.Num+1 {
		return fmt.Errorf("coords: Ptr length %d for %d coordinates", len(v.Ptr), v.Num)
	}
	if v.Ptr[v.Num] != len(v.Idx) {
		return fmt.Errorf("coords: storage lengths inconsistent")
	}
	if !v.UnitValues && len(v.Idx) != len(v.Val) {
		return fmt.Errorf("coords: %d indices for %d values", len(v.Idx), len(v.Val))
	}
	if len(v.Norms) != v.Num {
		return fmt.Errorf("coords: %d norms for %d coordinates", len(v.Norms), v.Num)
	}
	for _, i := range v.Idx {
		if i < 0 || int(i) >= v.SharedLen {
			return fmt.Errorf("coords: shared index %d out of range %d", i, v.SharedLen)
		}
	}
	if v.Form == perfmodel.Primal {
		if len(v.YShared) != v.SharedLen {
			return fmt.Errorf("coords: primal YShared length %d, want %d", len(v.YShared), v.SharedLen)
		}
	} else if len(v.YCoord) != v.Num {
		return fmt.Errorf("coords: dual YCoord length %d, want %d", len(v.YCoord), v.Num)
	}
	return nil
}

// FromProblem builds a view over all coordinates of the problem. It shares
// the problem's matrix arrays.
func FromProblem(p *ridge.Problem, form perfmodel.Form) *View { return newView(p, form, nil) }

// Subset builds a view over the given coordinate indices of the problem
// (features for the primal form, examples for the dual form), in the order
// given. This is the per-worker partition used by the distributed
// algorithms. The view holds compact copies of its coordinates' entries.
func Subset(p *ridge.Problem, form perfmodel.Form, ids []int) *View {
	if ids == nil {
		ids = []int{} // no coordinates; newView reads nil as all of them
	}
	return newView(p, form, ids)
}

// newView builds a view over the layout the form reads: the problem's CSC
// for the primal, which asks the problem to build it, and its CSR for the
// dual. ids lists the view's coordinates; nil means all of them, in order.
func newView(p *ridge.Problem, form perfmodel.Form, ids []int) *View {
	v := &View{Form: form, NGlobal: p.N, Lambda: p.Lambda}
	var ptr []int
	var idx []int32
	var val []float32
	var normSq func(int) float64
	if form == perfmodel.Primal {
		cols, norms := p.ACols(), p.ColNormsSq()
		ptr, idx, val = cols.ColPtr, cols.RowIdx, cols.Val
		v.Num, v.SharedLen, v.YShared = p.M, p.N, p.Y
		normSq = func(m int) float64 { return norms[m] }
	} else {
		ptr, idx, val = p.A.RowPtr, p.A.ColIdx, p.A.Val
		v.Num, v.SharedLen = p.N, p.M
		normSq = p.RowNormSq
	}
	v.Ptr, v.Idx, v.Val = ptr, idx, val
	v.UnitValues = val == nil
	id := func(k int) int { return k }
	if ids != nil {
		v.Num = len(ids)
		id = func(k int) int { return ids[k] }
		v.Ptr = make([]int, v.Num+1)
		for k, c := range ids {
			v.Ptr[k+1] = v.Ptr[k] + ptr[c+1] - ptr[c]
		}
		v.Idx = make([]int32, 0, v.Ptr[v.Num])
		if !v.UnitValues {
			v.Val = make([]float32, 0, v.Ptr[v.Num])
		}
		for _, c := range ids {
			v.Idx = append(v.Idx, idx[ptr[c]:ptr[c+1]]...)
			if !v.UnitValues {
				v.Val = append(v.Val, val[ptr[c]:ptr[c+1]]...)
			}
		}
	}
	if v.UnitValues {
		longest := 0
		for c := 0; c < v.Num; c++ {
			longest = max(longest, v.Ptr[c+1]-v.Ptr[c])
		}
		v.ones = make([]float32, longest)
		for i := range v.ones {
			v.ones[i] = 1
		}
	}
	v.Norms = make([]float64, v.Num)
	for k := range v.Norms {
		v.Norms[k] = normSq(id(k))
	}
	if form == perfmodel.Dual {
		v.YCoord = p.Y
		if ids != nil {
			v.YCoord = make([]float32, v.Num)
			for k, c := range ids {
				v.YCoord[k] = p.Y[c]
			}
		}
	}
	return v
}

// Bytes returns the approximate device-memory footprint of the view's data
// (pointers, indices, values, norms, labels). A unit-value view's device
// copy holds its ones buffer in place of a value array: the footnote-2
// memory halving for all-ones data.
func (v *View) Bytes() int64 {
	b := int64(len(v.Ptr))*8 + int64(len(v.Idx))*4 + int64(len(v.Norms))*8
	if v.UnitValues {
		b += int64(len(v.ones)) * 4
	} else {
		b += int64(len(v.Val)) * 4
	}
	b += int64(len(v.YShared))*4 + int64(len(v.YCoord))*4
	return b
}
