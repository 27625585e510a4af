package coords

import (
	"fmt"
	"sort"
	"testing"

	"tpascd/internal/datasets"
	"tpascd/internal/partition"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
)

// modeledSizes lists, for one problem, the sizes the modeled clock and the
// simulated device's capacity check read: the ridge loss's DataBytes per
// form, then NNZ, Bytes and the view loss's DataBytes for the whole-problem
// view and for every part of a two-way random and a two-way contiguous
// partition, per form.
func modeledSizes(p *ridge.Problem) []string {
	var out []string
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		out = append(out, fmt.Sprintf("%v ridge.Loss %d", form, ridge.NewLoss(p, form).DataBytes()))
	}
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		n := p.M
		if form == perfmodel.Dual {
			n = p.N
		}
		add := func(name string, v *View) {
			out = append(out, fmt.Sprintf("%v %s nnz=%d bytes=%d data=%d",
				form, name, v.NNZ(), v.Bytes(), NewLoss(v, 1).DataBytes()))
		}
		add("full", FromProblem(p, form))
		for k, ids := range randomParts(n, 2, 17) {
			add(fmt.Sprintf("random%d", k), Subset(p, form, ids))
		}
		for k, ids := range contiguousParts(n, 2) {
			add(fmt.Sprintf("contiguous%d", k), Subset(p, form, ids))
		}
	}
	return out
}

// randomParts deals a seeded permutation of 0..n-1 into k sorted parts, as
// dist.PartitionRandom does.
func randomParts(n, k int, seed uint64) [][]int {
	perm := rng.New(seed).Perm(n, nil)
	parts := make([][]int, k)
	for r := range parts {
		lo, hi := partition.Range(n, k, r)
		parts[r] = append([]int(nil), perm[lo:hi]...)
		sort.Ints(parts[r])
	}
	return parts
}

// contiguousParts cuts 0..n-1 into k ranges, as dist.PartitionContiguous
// does.
func contiguousParts(n, k int) [][]int {
	parts := make([][]int, k)
	for r := range parts {
		lo, hi := partition.Range(n, k, r)
		for i := lo; i < hi; i++ {
			parts[r] = append(parts[r], i)
		}
	}
	return parts
}

// criteoProblem is the fixed all-ones problem of the size pins.
func criteoProblem(t testing.TB) *ridge.Problem {
	t.Helper()
	a, y, err := datasets.Criteo(datasets.CriteoConfig{
		N: 2000, Fields: 8, CardinalityBase: 400, PositiveRate: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ridge.NewProblem(a, y, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkSizes(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d sizes, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("size %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// The modeled device footprint is what Fig. 10's out-of-memory behaviour
// and every modeled epoch time read, so how a view stores its data must not
// move it. The values are a device-resident copy's sizes.
func TestModeledSizesPinnedPrimal(t *testing.T) {
	checkSizes(t, modeledSizes(testProblem(t, 41, 300, 120, 6, 0.01)), []string{
		"primal ridge.Loss 17696",
		"dual ridge.Loss 21296",
		"primal full nnz=1761 bytes=17216 data=17696",
		"primal random0 nnz=868 bytes=9112 data=9352",
		"primal random1 nnz=893 bytes=9312 data=9552",
		"primal contiguous0 nnz=893 bytes=9312 data=9552",
		"primal contiguous1 nnz=868 bytes=9112 data=9352",
		"dual full nnz=1761 bytes=20096 data=21296",
		"dual random0 nnz=884 bytes=10080 data=10680",
		"dual random1 nnz=877 bytes=10024 data=10624",
		"dual contiguous0 nnz=882 bytes=10064 data=10664",
		"dual contiguous1 nnz=879 bytes=10040 data=10640",
	})
}

func TestModeledSizesPinnedCriteo(t *testing.T) {
	checkSizes(t, modeledSizes(criteoProblem(t)), []string{
		"primal ridge.Loss 158048",
		"dual ridge.Loss 176008",
		"primal full nnz=16000 bytes=91728 data=96136",
		"primal random0 nnz=8515 bytes=52972 data=55176",
		"primal random1 nnz=7485 bytes=48808 data=51012",
		"primal contiguous0 nnz=3937 bytes=34316 data=36520",
		"primal contiguous1 nnz=12063 bytes=67164 data=69368",
		"dual full nnz=16000 bytes=104040 data=112040",
		"dual random0 nnz=8000 bytes=52040 data=56040",
		"dual random1 nnz=8000 bytes=52040 data=56040",
		"dual contiguous0 nnz=8000 bytes=52040 data=56040",
		"dual contiguous1 nnz=8000 bytes=52040 data=56040",
	})
}
