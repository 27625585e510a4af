package elasticnet

import (
	"fmt"
	"math"

	"tpascd/internal/ridge"
)

// PathPoint is one solution along a regularization path.
type PathPoint struct {
	// Lambda is the regularization strength of this solution.
	Lambda float64
	// Beta is the model at this λ.
	Beta []float32
	// Objective is F(Beta) at this λ.
	Objective float64
	// NNZ counts non-zero weights.
	NNZ int
	// Epochs is the number of coordinate-descent epochs spent at this λ
	// (warm starts make later points cheap).
	Epochs int
}

// Path computes a warm-started regularization path, the signature
// computation of the glmnet paper the sequential algorithm comes from
// (Friedman, Hastie & Tibshirani, reference [4]: "regularization paths
// for generalized linear models via coordinate descent").
//
// The path runs from lambdaMax — the smallest λ at which the all-zero
// model is optimal, computed from the data as max_m |⟨a_m, y⟩|/(N·α) —
// down to lambdaMax·lambdaMinRatio over nLambda logarithmically spaced
// values. Each solution warm-starts the next; a point is declared
// converged when the KKT violation falls below tol or maxEpochs is spent.
func Path(rp *ridge.Problem, alpha float64, nLambda int, lambdaMinRatio, tol float64, maxEpochs int, seed uint64) ([]PathPoint, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("elasticnet: path requires alpha in (0,1], got %g", alpha)
	}
	if nLambda < 2 {
		return nil, fmt.Errorf("elasticnet: path needs at least 2 lambdas, got %d", nLambda)
	}
	if lambdaMinRatio <= 0 || lambdaMinRatio >= 1 {
		return nil, fmt.Errorf("elasticnet: lambdaMinRatio %g outside (0,1)", lambdaMinRatio)
	}

	// λ_max: with β=0, coordinate m activates as soon as
	// |⟨a_m, y⟩|/N > λα, so the path starts where nothing is active.
	var maxCorr float64
	cols := rp.ACols()
	for m := 0; m < rp.M; m++ {
		idx, val := cols.Col(m)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(rp.Y[idx[k]])
		}
		if a := math.Abs(dp); a > maxCorr {
			maxCorr = a
		}
	}
	lambdaMax := maxCorr / (float64(rp.N) * alpha)
	if lambdaMax <= 0 {
		return nil, fmt.Errorf("elasticnet: degenerate data (Aᵀy = 0)")
	}

	logMax := math.Log(lambdaMax)
	logMin := math.Log(lambdaMax * lambdaMinRatio)
	points := make([]PathPoint, 0, nLambda)
	var warm []float32
	for li := 0; li < nLambda; li++ {
		frac := float64(li) / float64(nLambda-1)
		lambda := math.Exp(logMax + frac*(logMin-logMax))
		lp, err := ridge.NewProblem(rp.A, rp.Y, lambda)
		if err != nil {
			return nil, err
		}
		p, err := NewProblem(lp, alpha)
		if err != nil {
			return nil, err
		}
		s := NewSequential(p, seed+uint64(li))
		if warm != nil {
			s.SetModel(warm)
		}
		epochs := 0
		for ; epochs < maxEpochs; epochs++ {
			s.RunEpoch()
			if p.OptimalityViolation(s.Model()) <= tol {
				epochs++
				break
			}
		}
		beta := make([]float32, len(s.Model()))
		copy(beta, s.Model())
		points = append(points, PathPoint{
			Lambda:    lambda,
			Beta:      beta,
			Objective: s.Objective(),
			NNZ:       NNZWeights(beta),
			Epochs:    epochs,
		})
		warm = beta
	}
	return points, nil
}
