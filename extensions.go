package tpascd

import (
	"io"

	"tpascd/internal/checkpoint"
	"tpascd/internal/elasticnet"
	"tpascd/internal/gpusim"
	"tpascd/internal/logistic"
	"tpascd/internal/metrics"
	"tpascd/internal/svm"
)

// Extensions: the paper's introduction motivates stochastic coordinate
// methods beyond ridge regression — "regression with elastic net
// regularization as well as support vector machines". Both are provided
// on the same substrates (sparse formats, shared-vector maintenance, the
// TPA-SCD execution strategy on the simulated GPU).

// ElasticNetProblem is ridge regression with an added L1 term in glmnet
// parameterization: F(β) = ‖Aβ−y‖²/(2N) + λ((1−α)/2‖β‖² + α‖β‖₁).
type ElasticNetProblem = elasticnet.Problem

// NewElasticNetProblem wraps a ridge problem with the mixing parameter
// alpha ∈ [0,1] (0 = ridge, 1 = lasso).
func NewElasticNetProblem(p *Problem, alpha float64) (*ElasticNetProblem, error) {
	return elasticnet.NewProblem(p, alpha)
}

// ElasticNetSolver is sequential coordinate descent with soft-thresholding
// updates (the glmnet algorithm, reference [4] of the paper).
type ElasticNetSolver = elasticnet.Sequential

// NewElasticNetSolver returns a sequential elastic-net solver.
func NewElasticNetSolver(p *ElasticNetProblem, seed uint64) *ElasticNetSolver {
	return elasticnet.NewSequential(p, seed)
}

// ElasticNetLoss returns the engine Loss of an elastic-net problem, for
// use with NewSolverFor — any registered driver can optimize it.
func ElasticNetLoss(p *ElasticNetProblem) Loss { return elasticnet.NewLoss(p) }

// ElasticNetGPU runs the same updates as a TPA-SCD kernel on a simulated
// device.
type ElasticNetGPU = elasticnet.GPU

// NewElasticNetGPU places the elastic-net problem on a fresh simulated
// device.
func NewElasticNetGPU(p *ElasticNetProblem, profile GPUProfile, blockSize int, seed uint64) (*ElasticNetGPU, error) {
	return elasticnet.NewGPU(p, gpusim.NewDevice(profile), blockSize, seed)
}

// SVMProblem is hinge-loss SVM classification solved by stochastic dual
// coordinate ascent (SDCA, reference [9] of the paper).
type SVMProblem = svm.Problem

// NewSVMProblem validates ±1 labels and wraps the training data.
func NewSVMProblem(a *CSR, y []float32, lambda float64) (*SVMProblem, error) {
	return svm.NewProblem(a, y, lambda)
}

// SVMSolver is sequential SDCA.
type SVMSolver = svm.Sequential

// NewSVMSolver returns a sequential SDCA solver.
func NewSVMSolver(p *SVMProblem, seed uint64) *SVMSolver {
	return svm.NewSequential(p, seed)
}

// SVMLoss returns the engine Loss of an SVM problem (dual form), for use
// with NewSolverFor — any registered driver can optimize it.
func SVMLoss(p *SVMProblem) Loss { return svm.NewLoss(p) }

// SVMGPU runs SDCA as a TPA-SCD kernel on a simulated device.
type SVMGPU = svm.GPU

// NewSVMGPU places the SVM problem on a fresh simulated device.
func NewSVMGPU(p *SVMProblem, profile GPUProfile, blockSize int, seed uint64) (*SVMGPU, error) {
	return svm.NewGPU(p, gpusim.NewDevice(profile), blockSize, seed)
}

// LogisticProblem is L2-regularized logistic regression solved by SDCA
// with exact (bisection-based) coordinate maximization — no step size, as
// for the other solvers in the family.
type LogisticProblem = logistic.Problem

// NewLogisticProblem validates ±1 labels and wraps the training data.
func NewLogisticProblem(a *CSR, y []float32, lambda float64) (*LogisticProblem, error) {
	return logistic.NewProblem(a, y, lambda)
}

// LogisticSolver is sequential SDCA for logistic regression.
type LogisticSolver = logistic.Solver

// NewLogisticSolver returns a sequential solver.
func NewLogisticSolver(p *LogisticProblem, seed uint64) *LogisticSolver {
	return logistic.NewSolver(p, seed)
}

// LogisticLoss returns the engine Loss of a logistic problem (dual form),
// for use with NewSolverFor — any registered driver can optimize it.
func LogisticLoss(p *LogisticProblem) Loss { return logistic.NewLoss(p) }

// Evaluation helpers (the paper's experiments use a 75/25 train/test
// split of this kind).

// SplitTrainTest partitions (a, y) by example uniformly at random.
func SplitTrainTest(a *CSR, y []float32, trainFrac float64, seed uint64) (trainA *CSR, trainY []float32, testA *CSR, testY []float32, err error) {
	return metrics.Split(a, y, trainFrac, seed)
}

// Predict computes scores ŷ = A·β.
func Predict(a *CSR, beta []float32) []float32 { return metrics.Scores(a, beta) }

// RMSE returns the root mean squared error of predictions against labels.
func RMSE(pred, y []float32) float64 { return metrics.RMSE(pred, y) }

// Accuracy returns the sign-agreement rate against ±1 labels.
func Accuracy(pred, y []float32) float64 { return metrics.Accuracy(pred, y) }

// AUC returns the area under the ROC curve of scores against ±1 labels.
func AUC(scores, y []float32) float64 { return metrics.AUC(scores, y) }

// Checkpointing: coordinate-descent state is fully captured by the model
// vector (the shared vector is recomputable from model and data), so
// checkpoints are small and endianness-independent, with a CRC-32
// integrity check.

// SaveModel writes model weights with a kind tag.
func SaveModel(w io.Writer, kind string, model []float32) error {
	return checkpoint.Save(w, checkpoint.Checkpoint{Kind: kind, Vectors: [][]float32{model}})
}

// LoadModel reads model weights, verifying integrity and (when non-empty)
// the kind tag.
func LoadModel(r io.Reader, kind string) ([]float32, error) {
	c, err := checkpoint.Load(r, kind)
	if err != nil {
		return nil, err
	}
	if len(c.Vectors) != 1 {
		return nil, io.ErrUnexpectedEOF
	}
	return c.Vectors[0], nil
}

// ElasticNetPathPoint is one solution along a regularization path.
type ElasticNetPathPoint = elasticnet.PathPoint

// ElasticNetPath computes a warm-started λ path from λ_max down to
// λ_max·lambdaMinRatio — the glmnet computation (paper reference [4]).
func ElasticNetPath(p *Problem, alpha float64, nLambda int, lambdaMinRatio, tol float64, maxEpochs int, seed uint64) ([]ElasticNetPathPoint, error) {
	return elasticnet.Path(p, alpha, nLambda, lambdaMinRatio, tol, maxEpochs, seed)
}

// NewSVMPartition builds one rank's share of a distributed SVM problem
// (the original CoCoA problem, paper reference [7]) from its rows of the
// data and the global example count. The partition is both the Loss of the
// rank's local solver (NewLocalSolverFor) and the third argument of
// NewWorker, which then aggregates by averaging or by the box-feasible
// adaptive γ of the SVM dual, as ClusterConfig.Aggregation says.
func NewSVMPartition(localA *CSR, localY []float32, lambda float64, nGlobal int) (*svm.Partition, error) {
	return svm.NewPartition(localA, localY, lambda, nGlobal)
}
