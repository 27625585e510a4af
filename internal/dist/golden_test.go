package dist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
)

// Fixed-seed golden distributed trajectories: K = 2 in-process ranks,
// sequential locals, adaptive aggregation. Each round contributes the
// Float64bits of the collective gap and of γ. Captured at the commit
// before the locals were ported onto the engine's drivers, when
// CPULocal still carried its own epoch bodies; the port moved code, it
// must not move floats. The benchmark pins distributed round counts
// (bench/workload.go) that depend on exactly this arithmetic, so a
// failure here is a regression, not a tolerance issue.
const (
	goldenDistPrimal = "3fca52bfc19a30d0:3fe9e9333b445773 3fb2fa6802baa1e0:3fed8aadeab279ec 3f99bb0599e04dc0:3fefa302cccb12b7 3f85d2f33894d520:3fedf26936eea506 3f744ba23ed67f00:3ff04273a2e22cfc 3f62932d789bf900:3fec1ee4a3df3d72 3f54f515eb16dd00:3ff0d6b0510033ff 3f40fee043a33000:3fea84e852e2525f 3f38f20ac8808800:3ff37f017f47f109 3f1d7680428c8000:3feaa8d040fc1a8a"
	goldenDistDual   = "3fdfa018eda09c4d:3ff44c4b2656b49e 3fc5921777f59c7a:3fe7ee023a63212b 3fc289a98dae30be:3fedb8143fc5e76e 3fb54534dc3cf758:3fea664b9854e6cd 3fac611d401d01b0:3fec0c59b87707d9 3fa3f6fc545b0900:3feb2c7200b02dc0 3f9a8a2533c90160:3fec1567c20822bb 3f935d8159cf35d0:3feba236e19b086c 3f8a96563db99e20:3fea2f4dd619328f 3f84a34abbe85360:3fec19c518ed60f1"
)

func goldenDistTrajectory(t *testing.T, form perfmodel.Form) string {
	t.Helper()
	p := testProblem(t, 101, 200, 120, 8, 0.01)
	g, err := NewCPUGroup(p, form, 2, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adaptive), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rounds := make([]string, 10)
	for r := range rounds {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		rounds[r] = fmt.Sprintf("%016x:%016x", math.Float64bits(gap), math.Float64bits(g.Gamma()))
	}
	return strings.Join(rounds, " ")
}

func TestGoldenDistPrimal(t *testing.T) {
	if got := goldenDistTrajectory(t, perfmodel.Primal); got != goldenDistPrimal {
		t.Errorf("distributed primal trajectory changed\n got: %s\nwant: %s", got, goldenDistPrimal)
	}
}

func TestGoldenDistDual(t *testing.T) {
	if got := goldenDistTrajectory(t, perfmodel.Dual); got != goldenDistDual {
		t.Errorf("distributed dual trajectory changed\n got: %s\nwant: %s", got, goldenDistDual)
	}
}
