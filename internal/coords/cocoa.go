package coords

import (
	"math"

	"tpascd/internal/perfmodel"
)

// The ridge family's side of a CoCoA round (dist.Family): the closed-form
// optimal aggregation parameter of Algorithm 4 and the collective duality
// gap, each split where the distributed worker sums scalars across ranks.

// Dims returns the view's coordinate count and the length of the global
// shared vector.
func (v *View) Dims() (coords, shared int) { return v.Num, v.SharedLen }

// GammaTerms returns this rank's summands of the model-side inner products
// of γ* (see GammaFromSums): ⟨model, Δmodel⟩, ‖Δmodel‖² and, for the dual,
// ⟨Δα, y⟩. Workers own disjoint coordinates, so the global values are plain
// sums — the paper's observation that makes the extra communication a few
// scalars per epoch.
func (v *View) GammaTerms(_, _ int, model, prevModel []float32) []float64 {
	var mDot, mNormSq, mY float64
	for j := range model {
		d := float64(model[j]) - float64(prevModel[j])
		mDot += float64(prevModel[j]) * d
		mNormSq += d * d
		if v.Form == perfmodel.Dual {
			mY += d * float64(v.YCoord[j])
		}
	}
	return []float64{mDot, mNormSq, mY}
}

// GammaFromSums computes the closed-form optimal aggregation parameter.
//
// Primal (eq. 7, with the residual written out; see DESIGN.md):
//
//	γ* = −(⟨w−y, Δw⟩ + Nλ⟨β, Δβ⟩) / (‖Δw‖² + Nλ‖Δβ‖²)
//
// Dual (with the ‖Δα‖² denominator obtained by differentiating D):
//
//	γ̄* = (⟨Δα, y⟩ − N⟨α, Δα⟩ − (1/λ)⟨w̄, Δw̄⟩) / ((1/λ)‖Δw̄‖² + N‖Δα‖²)
func (v *View) GammaFromSums(sums []float64, prevShared, deltaSum []float32) float64 {
	N := float64(v.NGlobal)
	lambda := v.Lambda
	mDot, mNormSq, mY := sums[0], sums[1], sums[2]

	// Shared-side scalars from globally identical vectors.
	var sDot, sNormSq float64
	if v.Form == perfmodel.Primal {
		for i := range deltaSum {
			d := float64(deltaSum[i])
			sDot += (float64(prevShared[i]) - float64(v.YShared[i])) * d
			sNormSq += d * d
		}
		return gammaOrOne(-(sDot + N*lambda*mDot), sNormSq+N*lambda*mNormSq)
	}
	for i := range deltaSum {
		d := float64(deltaSum[i])
		sDot += float64(prevShared[i]) * d
		sNormSq += d * d
	}
	return gammaOrOne(mY-N*mDot-sDot/lambda, sNormSq/lambda+N*mNormSq)
}

// gammaOrOne returns num/den, or γ = 1 for a degenerate round.
func gammaOrOne(num, den float64) float64 {
	if den <= 0 || math.IsNaN(num/den) {
		return 1
	}
	return num / den
}

// GapTerms returns this rank's summands of the duality gap: the pieces that
// need its model coordinates and matrix slice.
func (v *View) GapTerms(model, shared []float32) []float64 {
	N := float64(v.NGlobal)
	if v.Form == perfmodel.Primal {
		// α̂ = (y−w)/N (global), D(α̂) needs ‖Aᵀα̂‖² = Σ_k Σ_{j∈S_k}⟨a_j,α̂⟩².
		var betaSq float64
		for _, b := range model {
			betaSq += float64(b) * float64(b)
		}
		alphaHat := make([]float32, v.SharedLen)
		for i := range alphaHat {
			alphaHat[i] = (v.YShared[i] - shared[i]) / float32(N)
		}
		var atASq float64
		for c := 0; c < v.Num; c++ {
			idx, val := v.CoordNZ(c)
			var dp float64
			for k := range idx {
				dp += float64(val[k]) * float64(alphaHat[idx[k]])
			}
			atASq += dp * dp
		}
		return []float64{betaSq, atASq}
	}
	// β̂ = w̄/λ (global), P(β̂) needs Σ_k Σ_{i∈rows_k}(⟨ā_i,β̂⟩−y_i)².
	var alphaSq, alphaY, residSq float64
	betaHat := make([]float32, v.SharedLen)
	invLambda := 1 / float32(v.Lambda)
	for j := range betaHat {
		betaHat[j] = shared[j] * invLambda
	}
	for c := 0; c < v.Num; c++ {
		a := float64(model[c])
		alphaSq += a * a
		alphaY += a * float64(v.YCoord[c])
		idx, val := v.CoordNZ(c)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(betaHat[idx[k]])
		}
		r := dp - float64(v.YCoord[c])
		residSq += r * r
	}
	return []float64{alphaSq, alphaY, residSq}
}

// GapFromSums finishes the duality gap from the summed terms and the
// shared vector.
//
// Primal: P(β) = ‖w−y‖²/(2N) + λ/2·Σ_k‖β_k‖², D at α̂ = (y−w)/N.
// Dual: D(α) = −N/2·Σ‖α_k‖² − ‖w̄‖²/(2λ) + Σ⟨α_k,y_k⟩, P at β̂ = w̄/λ.
func (v *View) GapFromSums(sums []float64, shared []float32) float64 {
	N := float64(v.NGlobal)
	lambda := v.Lambda
	if v.Form == perfmodel.Primal {
		betaSq, atASq := sums[0], sums[1]
		var residSq, alphaSq, alphaY float64
		for i := range shared {
			r := float64(shared[i]) - float64(v.YShared[i])
			residSq += r * r
			a := float64((v.YShared[i] - shared[i]) / float32(N)) // α̂_i
			alphaSq += a * a
			alphaY += a * float64(v.YShared[i])
		}
		p := residSq/(2*N) + lambda/2*betaSq
		d := -N/2*alphaSq - atASq/(2*lambda) + alphaY
		return math.Abs(p - d)
	}
	alphaSq, alphaY, residSq := sums[0], sums[1], sums[2]
	var wbarSq, betaHatSq float64
	invLambda := 1 / float32(lambda)
	for _, x := range shared {
		wbarSq += float64(x) * float64(x)
		b := float64(x * invLambda) // β̂_j
		betaHatSq += b * b
	}
	d := -N/2*alphaSq - wbarSq/(2*lambda) + alphaY
	p := residSq/(2*N) + lambda/2*betaHatSq
	return math.Abs(p - d)
}
