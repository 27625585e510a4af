package ridge_test

import (
	"sync"
	"testing"

	"tpascd/internal/coords"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func lazyProblem(t testing.TB) *ridge.Problem {
	t.Helper()
	r := rng.New(5)
	coo := sparse.NewCOO(80, 30, 80*4)
	for i := 0; i < 80; i++ {
		for k := 0; k < 4; k++ {
			coo.Append(i, r.Intn(30), float32(r.NormFloat64()))
		}
	}
	y := make([]float32, 80)
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The dual reads the matrix by example only, so a whole dual life — every
// engine driver's epochs and gap, a rank's view, a distributed group and
// the primal-dual map — must never build the column layout.
func TestDualNeverBuildsColumns(t *testing.T) {
	p := lazyProblem(t)
	loss := ridge.NewLoss(p, perfmodel.Dual)
	for _, name := range engine.Drivers() {
		spec := engine.DriverSpec{Name: name, Threads: 2, Seed: 3}
		if name == engine.DriverGPU {
			spec.Device = gpusim.NewDevice(perfmodel.GPUM4000)
		}
		s, err := engine.NewSolver(loss, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for e := 0; e < 3; e++ {
			s.RunEpoch()
		}
		s.Gap()
		p.PrimalFromDual(s.SharedVector())
		if g, ok := s.(*engine.GPU); ok {
			g.Close()
		}
	}

	view := coords.Subset(p, perfmodel.Dual, []int{0, 3, 9, 40, 79})
	local, err := engine.NewSolver(coords.NewLoss(view, 1), engine.DriverSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	local.RunEpoch()

	g, err := dist.NewCPUGroup(p, perfmodel.Dual, 2, engine.DriverSpec{}, perfmodel.CPUSequential,
		dist.Config{Aggregation: dist.Adaptive}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 2; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Gap(); err != nil {
		t.Fatal(err)
	}
	if ridge.ColumnsBuilt(p) {
		t.Fatal("a dual run built the column layout")
	}

	ridge.NewLoss(p, perfmodel.Primal)
	if !ridge.ColumnsBuilt(p) {
		t.Fatal("the primal loss did not build the column layout")
	}
}

// Goroutines that ask for the column layout at the same time must all get
// the one layout, built once (run under -race).
func TestColumnsBuildOnce(t *testing.T) {
	p := lazyProblem(t)
	const n = 8
	got := make([]*sparse.CSC, n)
	norms := make([]float64, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = p.ACols()
			norms[i] = p.ColNormSq(i)
		}()
	}
	start.Done()
	done.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("goroutine %d got layout %p, goroutine 0 got %p", i, got[i], got[0])
		}
		idx, val := got[i].Col(i)
		var want float64
		for k := range idx {
			want += float64(val[k]) * float64(val[k])
		}
		if norms[i] != want {
			t.Fatalf("column %d norm %v, want %v", i, norms[i], want)
		}
	}
	if p.ACols() != got[0] {
		t.Fatal("a later call built a second layout")
	}
}
