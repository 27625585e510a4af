package tpascd

import (
	"tpascd/internal/cluster"
	"tpascd/internal/coords"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/experiments"
	"tpascd/internal/perfmodel"
	"tpascd/internal/trace"
)

// Distributed training (Sections IV and V of the paper).

// Aggregation selects how worker updates are combined each epoch.
type Aggregation = dist.Aggregation

// The two aggregation strategies.
const (
	// Averaging applies γ = 1/K (Algorithm 3).
	Averaging = dist.Averaging
	// Adaptive computes the closed-form optimal γ each epoch
	// (Algorithm 4, the paper's contribution).
	Adaptive = dist.Adaptive
	// Adding applies γ = 1 (the CoCoA+-style "adding" of prior work
	// discussed in the paper's Section IV-B).
	Adding = dist.Adding
)

// Link models an interconnect for simulated-time accounting.
type Link = perfmodel.Link

// Standard interconnect models.
var (
	// Link10GbE is the paper's Ethernet cluster fabric.
	Link10GbE = perfmodel.Link10GbE
	// Link100GbE is the faster fabric the paper projects.
	Link100GbE = perfmodel.Link100GbE
	// LinkPCIePeer models multiple GPUs sharing one PCIe root.
	LinkPCIePeer = perfmodel.LinkPCIePeer
)

// ClusterConfig parameterizes a distributed run.
type ClusterConfig = dist.Config

// Cluster is a K-worker distributed trainer running in-process (each
// worker is a goroutine with its own data partition; GPU-backed workers
// each own a simulated device).
type Cluster = dist.Group

// Breakdown is a simulated-time account split into GPU compute, host
// compute, PCIe and network categories.
type Breakdown = perfmodel.Breakdown

// NewCPUCluster builds a K-worker cluster with sequential-SCD local
// solvers (the configuration of Figs. 3-6).
func NewCPUCluster(p *Problem, form Form, k int, cfg ClusterConfig, seed uint64) (*Cluster, error) {
	return dist.NewCPUGroup(p, form, k, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, seed)
}

// NewCPUClusterSpec is NewCPUCluster with the local solver selected from
// the engine driver registry (any CPU driver: scd, a-scd, wild, syscd).
func NewCPUClusterSpec(p *Problem, form Form, k int, spec DriverSpec, cfg ClusterConfig, seed uint64) (*Cluster, error) {
	return dist.NewCPUGroup(p, form, k, spec, perfmodel.CPUSequential, cfg, seed)
}

// NewGPUCluster builds a K-worker cluster whose local solvers are TPA-SCD
// kernels, each on its own simulated device (the Fig. 7 architecture).
func NewGPUCluster(p *Problem, form Form, k int, gpu GPUProfile, blockSize int, cfg ClusterConfig, seed uint64) (*Cluster, error) {
	return dist.NewGPUGroup(p, form, k, gpu, blockSize, cfg, seed)
}

// Comm is an MPI-like communicator (Broadcast / Reduce / scalar Allreduce /
// Barrier) for writing custom distributed drivers, including across real
// TCP connections.
type Comm = cluster.Comm

// InProcComms returns size connected in-process communicators.
func InProcComms(size int) ([]Comm, error) { return cluster.InProc(size) }

// CommConfig tunes a transport's failure detection: per-collective socket
// deadlines, the dial retry/backoff schedule and the total join deadline.
type CommConfig = cluster.Config

// DefaultCommConfig returns the production defaults (30s collective
// timeout; 60s join deadline with 50ms–1s exponential dial backoff).
func DefaultCommConfig() CommConfig { return cluster.DefaultConfig() }

// ErrPeerDown is the typed, rank-attributed error a hardened transport
// returns when a peer dies or stalls mid-collective; extract it from an
// error chain with errors.As.
type ErrPeerDown = cluster.ErrPeerDown

// ErrCommClosed is returned by collectives on a closed communicator.
var ErrCommClosed = cluster.ErrClosed

// ListenTCP creates the master (rank 0) side of a TCP communicator group
// with DefaultCommConfig; it returns immediately with the bound address
// and accepts the size-1 workers in the background.
func ListenTCP(addr string, size int) (Comm, string, error) { return cluster.ListenTCP(addr, size) }

// ListenTCPConfig is ListenTCP with explicit failure-detection parameters.
func ListenTCPConfig(addr string, size int, cfg CommConfig) (Comm, string, error) {
	return cluster.ListenTCPConfig(addr, size, cfg)
}

// DialTCP connects a worker rank (1..size-1) to a TCP master with
// DefaultCommConfig, retrying with exponential backoff until the join
// deadline so workers may start before their master.
func DialTCP(addr string, rank, size int) (Comm, error) { return cluster.DialTCP(addr, rank, size) }

// DialTCPConfig is DialTCP with explicit failure-detection parameters.
func DialTCPConfig(addr string, rank, size int, cfg CommConfig) (Comm, error) {
	return cluster.DialTCPConfig(addr, rank, size, cfg)
}

// ChaosConfig drives deterministic fault injection on a wrapped
// communicator (delays, drops, truncation, killing a rank at a chosen
// collective) for testing distributed failure handling.
type ChaosConfig = cluster.ChaosConfig

// WrapChaos wraps a communicator with seed-driven fault injection.
func WrapChaos(c Comm, cfg ChaosConfig) Comm { return cluster.Chaos(c, cfg) }

// Worker is one rank of the distributed algorithms, usable over any Comm
// (in-process or TCP). All ranks must call RunEpoch collectively.
type Worker = dist.Worker

// CoordinateView is one worker's partition of a problem: the compressed
// non-zero patterns, curvatures and labels of its coordinates.
type CoordinateView = coords.View

// PartitionView extracts the coordinate view for the given coordinate ids
// (features in the primal form, examples in the dual). The view holds
// compact copies of its coordinates' entries.
func PartitionView(p *Problem, form Form, ids []int) *CoordinateView {
	return coords.Subset(p, form, ids)
}

// PartitionRandom assigns n coordinates to k workers uniformly at random.
func PartitionRandom(n, k int, seed uint64) [][]int {
	return dist.PartitionRandom(n, k, seed)
}

// PartitionContiguous assigns n coordinates to k workers as contiguous
// near-equal ranges — rank r owns [r·n/k, (r+1)·n/k), exactly the range
// serving shard r of k covers, which is what lets distworker -shard-out
// publish each rank's primal model slice directly as a serving shard.
func PartitionContiguous(n, k int) [][]int {
	return dist.PartitionContiguous(n, k)
}

// CooperativeShardFingerprint computes the shard-plan fingerprint of a
// model partitioned contiguously across the comm's ranks, each rank
// contributing only the digest of its own slice — no process ever holds
// the whole vector. All ranks must call it collectively; the result
// equals the Fingerprint a single process would compute from the merged
// model.
func CooperativeShardFingerprint(comm Comm, kind string, dim int, slice []float32) (string, error) {
	return dist.CooperativeFingerprint(comm, kind, dim, slice)
}

// NewWorker builds one distributed rank from a communicator, a local
// solver over its partition and the partition itself — a *CoordinateView
// for ridge regression, an SVM partition (NewSVMPartition) for the hinge
// dual — which supplies the family's optimal γ and duality gap.
func NewWorker(comm Comm, local dist.Local, part dist.Family, cfg ClusterConfig) (*Worker, error) {
	return dist.NewWorker(comm, local, part, cfg)
}

// NewSequentialLocal returns a single-threaded local solver over a
// partition, for use with NewWorker. The concrete type additionally
// offers SkipEpochs, the permutation fast-forward checkpoint resume uses.
func NewSequentialLocal(view *CoordinateView, seed uint64) *dist.CPULocal {
	l, err := dist.NewCPULocal(view, engine.DriverSpec{Seed: seed}, perfmodel.CPUSequential)
	if err != nil {
		// Unreachable: the sequential driver is always registered.
		panic(err)
	}
	return l
}

// NewLocalSolver returns a local solver over a partition for any CPU
// driver registered with the engine (scd, a-scd, wild, syscd), selected by
// spec.Name. The concrete type additionally offers SkipEpochs, the
// permutation fast-forward checkpoint resume uses.
func NewLocalSolver(view *CoordinateView, spec DriverSpec) (*dist.CPULocal, error) {
	return dist.NewCPULocal(view, spec, perfmodel.CPUSequential)
}

// NewLocalSolverFor returns a local solver over any family's partition
// loss (such as an SVM partition) for any driver registered with the
// engine, for use with NewWorker. CPU drivers yield a *dist.CPULocal,
// which additionally offers SkipEpochs.
func NewLocalSolverFor(l Loss, spec DriverSpec) (dist.Local, error) {
	return dist.NewLocal(l, spec, perfmodel.CPUSequential)
}

// Experiment harness re-exports.

// ExperimentScale sizes the figure-reproduction experiments.
type ExperimentScale = experiments.Scale

// Figure is one reproduced paper figure: labeled gap/time/γ series.
type Figure = trace.Figure

// DefaultExperimentScale reproduces the figures at laptop scale.
func DefaultExperimentScale() ExperimentScale { return experiments.Default() }

// QuickExperimentScale is a smoke-test scale.
func QuickExperimentScale() ExperimentScale { return experiments.Quick() }

// RunFigure regenerates one figure of the paper ("1".."6", "8".."10").
func RunFigure(id string, s ExperimentScale) ([]Figure, error) { return experiments.Run(id, s) }

// FigureIDs lists the reproducible figures in order.
func FigureIDs() []string { return experiments.FigureIDs() }
