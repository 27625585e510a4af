package svm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tpascd/internal/dist"
)

// Fixed-seed golden distributed-SVM trajectories: K = 2 in-process ranks
// over a random partition, sequential locals, averaging and adaptive
// aggregation. Each round contributes the Float64bits of the collective
// gap and of γ. Captured from svm.DistWorker at the commit before it was
// deleted, when distributed SVM carried its own round, SDCA pass, γ and
// gap; dist.Worker over a Partition performs the same float operations in
// the same order (the adaptive run hits the box clamp, γ = 1, in round 2),
// so a failure here is a moved statement, not a tolerance issue.
const (
	goldenDistSVMAveraging = "3fd4a5046c23d79d:3fe0000000000000 3fcd930398626391:3fe0000000000000 3fc622b1d20e95d0:3fe0000000000000 3fc147b843a8d504:3fe0000000000000 3fbb38dac9730f92:3fe0000000000000 3fb3d5d08bc56b1c:3fe0000000000000 3fadeb6e10435838:3fe0000000000000 3fa689052f525ca8:3fe0000000000000 3fa20758a3ca9d70:3fe0000000000000 3f9e2ce3a3798cd0:3fe0000000000000"
	goldenDistSVMAdaptive  = "3fd2060ad79de408:3fe8fd62a85f4dc4 3fd34e7f1879785f:3ff0000000000000 3fc48e66303daedc:3fecd572d1fc4ee6 3fbff4804fb233fe:3fe9399b2b9615d5 3fb6f3c9b2ecd254:3fe9e6877dc5c4e5 3fb125ffc757b368:3feac9d64d10cc99 3fa7dce1eb15efd8:3fea8554a6b0bf0d 3fa1e8c82a1d5798:3fed4097956e0bba 3f98df4178c8c510:3fed94da8213bbe4 3f948b470770a650:3fee87f40ceff668"
)

func goldenDistSVMTrajectory(t *testing.T, agg dist.Aggregation) string {
	t.Helper()
	p := separableProblem(t, 101, 200, 60, 8, 0.01)
	c := newSVMCluster(t, p, 2, agg, 42)
	defer c.close()
	rounds := make([]string, 10)
	for r := range rounds {
		c.run(t, 1)
		rounds[r] = fmt.Sprintf("%016x:%016x", math.Float64bits(c.gap(t)), math.Float64bits(c.workers[0].Gamma()))
	}
	return strings.Join(rounds, " ")
}

func TestGoldenDistSVMAveraging(t *testing.T) {
	if got := goldenDistSVMTrajectory(t, dist.Averaging); got != goldenDistSVMAveraging {
		t.Errorf("distributed SVM averaging trajectory changed\n got: %s\nwant: %s", got, goldenDistSVMAveraging)
	}
}

func TestGoldenDistSVMAdaptive(t *testing.T) {
	if got := goldenDistSVMTrajectory(t, dist.Adaptive); got != goldenDistSVMAdaptive {
		t.Errorf("distributed SVM adaptive trajectory changed\n got: %s\nwant: %s", got, goldenDistSVMAdaptive)
	}
}
