package coords

import (
	"math"
	"testing"

	"tpascd/internal/datasets"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func testProblem(t testing.TB, seed uint64, n, m, nnzPerRow int, lambda float64) *ridge.Problem {
	t.Helper()
	r := rng.New(seed)
	coo := sparse.NewCOO(n, m, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Append(i, r.Intn(m), float32(r.NormFloat64()))
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// delta is the exact (σ′ = 1) step of coordinate c through the view-backed
// Loss against a plain shared vector, the way the engine's sequential
// driver composes it: inner product, then Step.
func delta(v *View, c int, shared []float32, cur float32) float32 {
	l := NewLoss(v, 1)
	idx, val := l.CoordNZ(c)
	labels := l.Labels()
	var dp float64
	for k, i := range idx {
		if l.Residual() {
			dp += float64(val[k]) * (float64(labels[i]) - float64(shared[i]))
		} else {
			dp += float64(val[k]) * float64(shared[i])
		}
	}
	return l.Step(c, dp, cur)
}

func TestFromProblemValid(t *testing.T) {
	p := testProblem(t, 1, 30, 20, 4, 0.1)
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		v := FromProblem(p, form)
		if err := v.Validate(); err != nil {
			t.Fatalf("%v view invalid: %v", form, err)
		}
		if form == perfmodel.Primal && (v.Num != p.M || v.SharedLen != p.N) {
			t.Fatalf("primal dims wrong: %d %d", v.Num, v.SharedLen)
		}
		if form == perfmodel.Dual && (v.Num != p.N || v.SharedLen != p.M) {
			t.Fatalf("dual dims wrong: %d %d", v.Num, v.SharedLen)
		}
		if v.NNZ() != int64(p.A.NNZ()) {
			t.Fatalf("NNZ = %d, want %d", v.NNZ(), p.A.NNZ())
		}
	}
}

// The step through the view-backed Loss must equal the ridge package's.
func TestDeltaMatchesRidge(t *testing.T) {
	p := testProblem(t, 2, 40, 25, 5, 0.05)
	r := rng.New(3)
	w := make([]float32, p.N)
	beta := make([]float32, p.M)
	for i := range w {
		w[i] = float32(r.NormFloat64())
	}
	for j := range beta {
		beta[j] = float32(r.NormFloat64())
	}
	v := FromProblem(p, perfmodel.Primal)
	for m := 0; m < p.M; m++ {
		want := p.PrimalDelta(m, w, beta[m])
		got := delta(v, m, w, beta[m])
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("primal delta %d: %v vs %v", m, got, want)
		}
	}
	wbar := make([]float32, p.M)
	alpha := make([]float32, p.N)
	for i := range wbar {
		wbar[i] = float32(r.NormFloat64())
	}
	dv := FromProblem(p, perfmodel.Dual)
	for n := 0; n < p.N; n++ {
		want := p.DualDelta(n, wbar, alpha[n])
		got := delta(dv, n, wbar, alpha[n])
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("dual delta %d: %v vs %v", n, got, want)
		}
	}
}

// A subset view must produce the same deltas as the full view for the
// coordinates it contains.
func TestSubsetDeltasMatchFull(t *testing.T) {
	p := testProblem(t, 4, 35, 22, 4, 0.05)
	r := rng.New(5)
	ids := []int{3, 7, 11, 19}
	w := make([]float32, p.N)
	for i := range w {
		w[i] = float32(r.NormFloat64())
	}
	full := FromProblem(p, perfmodel.Primal)
	sub := Subset(p, perfmodel.Primal, ids)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		want := delta(full, id, w, 0.25)
		got := delta(sub, k, w, 0.25)
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("subset delta %d: %v vs %v", k, got, want)
		}
	}

	wbar := make([]float32, p.M)
	for i := range wbar {
		wbar[i] = float32(r.NormFloat64())
	}
	fullD := FromProblem(p, perfmodel.Dual)
	rows := []int{0, 5, 17, 34}
	subD := Subset(p, perfmodel.Dual, rows)
	if err := subD.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, id := range rows {
		want := delta(fullD, id, wbar, -0.5)
		got := delta(subD, k, wbar, -0.5)
		if math.Abs(float64(got-want)) > 1e-6 {
			t.Fatalf("dual subset delta %d: %v vs %v", k, got, want)
		}
	}
}

// Subsets over a partition must cover all non-zeros exactly once.
func TestSubsetsCoverProblem(t *testing.T) {
	p := testProblem(t, 6, 40, 24, 4, 0.1)
	partA := []int{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}
	partB := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	a := Subset(p, perfmodel.Primal, partA)
	b := Subset(p, perfmodel.Primal, partB)
	if a.NNZ()+b.NNZ() != int64(p.A.NNZ()) {
		t.Fatalf("partition lost non-zeros: %d + %d != %d", a.NNZ(), b.NNZ(), p.A.NNZ())
	}
}

func TestValidateCatchesBadViews(t *testing.T) {
	p := testProblem(t, 7, 20, 10, 3, 0.1)
	v := FromProblem(p, perfmodel.Primal)
	bad := *v
	bad.Norms = bad.Norms[:2]
	if err := bad.Validate(); err == nil {
		t.Fatal("short norms accepted")
	}
	bad2 := *v
	bad2.SharedLen = 1
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range indices accepted")
	}
	bad3 := *v
	bad3.YShared = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("missing labels accepted")
	}
	sub := Subset(p, perfmodel.Primal, []int{1, 2, 3})
	bad4 := *sub
	bad4.Ptr = append([]int(nil), sub.Ptr...)
	bad4.Ptr[0] = bad4.Ptr[3] + 1
	bad4.Ptr[3]--
	if err := bad4.Validate(); err == nil {
		t.Fatal("pointer array disagreeing with storage accepted")
	}
	if empty := Subset(p, perfmodel.Dual, nil); empty.Num != 0 || empty.NNZ() != 0 {
		t.Fatalf("Subset(nil) has %d coordinates, %d entries; want none", empty.Num, empty.NNZ())
	}
}

func TestBytesPositive(t *testing.T) {
	p := testProblem(t, 8, 20, 10, 3, 0.1)
	if FromProblem(p, perfmodel.Primal).Bytes() <= 0 {
		t.Fatal("Bytes must be positive")
	}
}

// onesProblem builds an all-ones (one-hot-style) problem.
func onesProblem(t testing.TB, n, m, nnzPerRow int) *ridge.Problem {
	t.Helper()
	r := rng.New(99)
	coo := sparse.NewCOO(n, m, n*nnzPerRow)
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for len(seen) < nnzPerRow {
			j := r.Intn(m)
			if seen[j] {
				continue
			}
			seen[j] = true
			coo.Append(i, j, 1)
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = float32(2*(i%2) - 1)
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Unit-value views (the paper's footnote-2 memory optimization for criteo)
// must behave identically to explicit-value views and be smaller.
func TestUnitValueViewEquivalence(t *testing.T) {
	p := onesProblem(t, 60, 30, 4)
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		auto := FromProblem(p, form)
		if !auto.UnitValues {
			t.Fatalf("%v: all-ones view not converted to pattern storage", form)
		}
		if err := auto.Validate(); err != nil {
			t.Fatal(err)
		}
		// The same view with the values written out.
		explicit := FromProblem(p, form)
		explicit.UnitValues, explicit.ones = false, nil
		explicit.Val = make([]float32, len(explicit.Idx))
		for k := range explicit.Val {
			explicit.Val[k] = 1
		}
		if err := explicit.Validate(); err != nil {
			t.Fatal(err)
		}
		shared := make([]float32, auto.SharedLen)
		r := rng.New(5)
		for i := range shared {
			shared[i] = float32(r.NormFloat64())
		}
		for c := 0; c < auto.Num; c++ {
			da := delta(auto, c, shared, 0.3)
			de := delta(explicit, c, shared, 0.3)
			if da != de {
				t.Fatalf("%v coordinate %d: pattern delta %v != explicit %v", form, c, da, de)
			}
		}
		if auto.Bytes() >= explicit.Bytes() {
			t.Fatalf("%v: pattern view (%d B) not smaller than explicit (%d B)", form, auto.Bytes(), explicit.Bytes())
		}
		if auto.NNZ() != explicit.NNZ() {
			t.Fatalf("NNZ changed: %d vs %d", auto.NNZ(), explicit.NNZ())
		}
	}
}

func TestNonUnitViewStaysExplicit(t *testing.T) {
	p := testProblem(t, 30, 30, 20, 4, 0.1)
	v := FromProblem(p, perfmodel.Primal)
	if v.UnitValues {
		t.Fatal("random-valued view wrongly converted")
	}
	if v.Val == nil {
		t.Fatal("value array dropped for non-unit data")
	}
}

// The criteo-like generator produces all-ones data, so its views are
// pattern-only (the paper's footnote-2 memory optimization) and shrink
// accordingly.
func TestCriteoViewsUsePatternStorage(t *testing.T) {
	v := FromProblem(criteoProblem(t), perfmodel.Dual)
	if !v.UnitValues {
		t.Fatal("criteo-like view not pattern-only")
	}
	// 2001 pointers, 16000 indices, 2000 norms and labels and an 8-entry
	// ones buffer: no value array (it would add 64000 bytes). The value is
	// pinned with the other modeled sizes (sizes_test.go).
	if v.NNZ() != 16000 || v.Bytes() != 104040 {
		t.Fatalf("pattern view holds %d entries in %d bytes, want 16000 in 104040", v.NNZ(), v.Bytes())
	}
}

// Footnote 2 holds in the store, not only in the views: from the generator
// through the problem's row and column layouts to every rank's view, an
// all-ones matrix never holds a value array. Data with other values keeps
// every array.
func TestCriteoStoreIsPatternOnly(t *testing.T) {
	webspam, _, err := datasets.Webspam(datasets.WebspamConfig{N: 600, M: 300, AvgNNZPerRow: 8, Skew: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := ridge.NewProblem(webspam, make([]float32, webspam.NumRows), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*ridge.Problem{"criteo": criteoProblem(t), "webspam": wp} {
		unit := name == "criteo"
		if (p.A.Val == nil) != unit || (p.ACols().Val == nil) != unit {
			t.Fatalf("%s: CSR value array %d entries, CSC %d", name, len(p.A.Val), len(p.ACols().Val))
		}
		for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
			n := p.M
			if form == perfmodel.Dual {
				n = p.N
			}
			views := []*View{FromProblem(p, form)}
			for _, parts := range [][][]int{randomParts(n, 3, 5), contiguousParts(n, 3)} {
				for _, ids := range parts {
					views = append(views, Subset(p, form, ids))
				}
			}
			for k, v := range views {
				if v.UnitValues != unit || (v.Val == nil) != unit {
					t.Fatalf("%s %v view %d: UnitValues %v with %d values", name, form, k, v.UnitValues, len(v.Val))
				}
				if err := v.Validate(); err != nil {
					t.Fatalf("%s %v view %d: %v", name, form, k, err)
				}
			}
		}
	}
}

// copiedView is an oracle view over ids with every coordinate's entries,
// values included, copied into compact arrays (SelectRows for the dual, a
// column-by-column copy of a fresh CSC for the primal).
func copiedView(p *ridge.Problem, form perfmodel.Form, ids []int) *View {
	ptr := []int{0}
	var idx []int32
	var val []float32
	add := func(ci []int32, cv []float32) {
		idx = append(idx, ci...)
		val = append(val, cv...)
		ptr = append(ptr, len(idx))
	}
	if form == perfmodel.Dual {
		sub := p.A.SelectRows(ids)
		for k := range ids {
			add(sub.Row(k))
		}
	} else {
		csc := p.A.ToCSC()
		for _, id := range ids {
			add(csc.Col(id))
		}
	}
	ref := Subset(p, form, ids)
	return &View{Form: form, Num: len(ids), SharedLen: ref.SharedLen, NGlobal: p.N, Lambda: p.Lambda,
		Ptr: ptr, Idx: idx, Val: val, Norms: ref.Norms, YShared: ref.YShared, YCoord: ref.YCoord}
}

// The whole-problem view points into the problem's own layout (nothing is
// copied); the views of random and contiguous partitions hold compact
// copies, so a rank that drops the problem keeps only its share. Either way
// they hand the engine exactly what a copied view would: the same entries,
// bit for bit, and the same share of the shared vector.
func TestSubsetAliasesProblem(t *testing.T) {
	problems := map[string]*ridge.Problem{
		"random": testProblem(t, 12, 90, 40, 5, 0.05),
		"criteo": criteoProblem(t),
	}
	for name, p := range problems {
		for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
			n, ptr, idx, val := p.M, p.ACols().ColPtr, p.ACols().RowIdx, p.ACols().Val
			if form == perfmodel.Dual {
				n, ptr, idx, val = p.N, p.A.RowPtr, p.A.ColIdx, p.A.Val
			}
			partitions := map[string][][]int{
				"whole":      contiguousParts(n, 1),
				"random":     randomParts(n, 3, 7),
				"contiguous": contiguousParts(n, 3),
			}
			for pname, parts := range partitions {
				for r, ids := range parts {
					v := Subset(p, form, ids)
					if pname == "whole" {
						v = FromProblem(p, form)
					}
					oracle := copiedView(p, form, ids)
					if err := v.Validate(); err != nil {
						t.Fatalf("%s %v %s rank %d: %v", name, form, pname, r, err)
					}
					for k, id := range ids {
						gi, gv := v.CoordNZ(k)
						wi, wv := oracle.CoordNZ(k)
						if len(gi) != ptr[id+1]-ptr[id] || len(gi) != len(wi) || len(gv) != len(wv) {
							t.Fatalf("%s %v %s rank %d coordinate %d: %d entries, want %d", name, form, pname, r, k, len(gi), len(wi))
						}
						if len(gi) == 0 {
							continue
						}
						shared := &gi[0] == &idx[ptr[id]] && (v.UnitValues || &gv[0] == &val[ptr[id]])
						if shared != (pname == "whole") {
							t.Fatalf("%s %v %s rank %d coordinate %d: entries in the problem's layout = %v", name, form, pname, r, k, shared)
						}
						for e := range gi {
							if gi[e] != wi[e] || math.Float32bits(gv[e]) != math.Float32bits(wv[e]) {
								t.Fatalf("%s %v %s rank %d coordinate %d entry %d: (%d, %v), want (%d, %v)",
									name, form, pname, r, k, e, gi[e], gv[e], wi[e], wv[e])
							}
						}
					}
					model := make([]float32, v.Num)
					rr := rng.New(uint64(r) + 3)
					for c := range model {
						model[c] = float32(rr.NormFloat64())
					}
					got, want := make([]float32, v.SharedLen), make([]float32, v.SharedLen)
					v.MulModel(got, model)
					oracle.MulModel(want, model)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %v %s rank %d: MulModel[%d] = %v, want %v", name, form, pname, r, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
