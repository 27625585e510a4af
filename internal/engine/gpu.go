package engine

import (
	"fmt"

	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
)

// GPU runs the loss's coordinate descent as a TPA-SCD kernel (Algorithm 2
// of the paper) on a simulated device: one thread block per coordinate,
// strided partial inner product, float32 tree reduction, the exact step in
// phase 2 (thread 0), and atomic write-back of the shared-vector update by
// all lanes. Blocks are dispatched asynchronously onto the SM slots of the
// simulated device and race on the shared vector in global memory through
// CAS-loop float atomics, so the asynchrony is executed, not simulated.
//
// The problem data is transferred to the device once, up front, as in the
// paper ("the dataset ... is transferred into the GPU memory once at the
// beginning of operation and does not move").
type GPU struct {
	loss      Loss
	dev       *gpusim.Device
	model     *gpusim.Buffer
	shared    *gpusim.Buffer
	blockSize int
	rng       *rng.Xoshiro256
	perm      []int
	reserved  int64

	epochs     int64
	totalStats gpusim.KernelStats
}

// NewGPU places the loss's data on the device and allocates the model and
// shared-vector buffers. It fails if the device memory capacity would be
// exceeded.
func NewGPU(l Loss, dev *gpusim.Device, blockSize int, seed uint64) (*GPU, error) {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("engine: block size %d must be a positive power of two", blockSize)
	}
	dataBytes := l.DataBytes()
	if err := dev.ReserveBytes(dataBytes); err != nil {
		return nil, err
	}
	model, err := dev.Alloc(l.NumCoords())
	if err != nil {
		dev.ReleaseBytes(dataBytes)
		return nil, err
	}
	shared, err := dev.Alloc(l.SharedLen())
	if err != nil {
		dev.Free(model)
		dev.ReleaseBytes(dataBytes)
		return nil, err
	}
	return &GPU{
		loss:      l,
		dev:       dev,
		model:     model,
		shared:    shared,
		blockSize: blockSize,
		rng:       rng.New(seed),
		reserved:  dataBytes,
	}, nil
}

// Close releases all device memory held by the solver.
func (g *GPU) Close() {
	g.dev.Free(g.model)
	g.dev.Free(g.shared)
	g.dev.ReleaseBytes(g.reserved)
	g.reserved = 0
}

// RunEpoch launches Algorithm 2 once: a fresh random permutation of the
// coordinates, one thread block per coordinate. Model and shared vector
// stay on the device.
func (g *GPU) RunEpoch() {
	l := g.loss
	g.perm = g.rng.Perm(l.NumCoords(), g.perm)
	residual, labels := l.Residual(), l.Labels()
	model, shared := g.model, g.shared

	stats := g.dev.Launch(l.NumCoords(), g.blockSize, func(b *gpusim.Block) {
		c := g.perm[b.Idx()] // "Get shuffled coordinate" (thread u=0 in the listing)
		idx, val := l.CoordNZ(c)

		// Phase 1: partial inner products + tree reduction in float32.
		var dp float32
		if residual {
			dp = b.ReduceSum(len(idx), func(e int) float32 {
				i := idx[e]
				return val[e] * (labels[i] - b.Read(shared, i))
			})
		} else {
			dp = b.ReduceSum(len(idx), func(e int) float32 {
				return val[e] * b.Read(shared, idx[e])
			})
		}

		// Phase 2 (thread 0): exact coordinate step.
		cur := b.Read(model, int32(c))
		d := l.Step(c, float64(dp), cur)
		if d == 0 {
			return
		}
		b.Write(model, int32(c), cur+d)

		// Phase 3: all lanes write the shared-vector update atomically.
		coeff := l.UpdateCoeff(c, d)
		b.ParallelFor(len(idx), func(e int) {
			b.AtomicAdd(shared, idx[e], val[e]*coeff)
		})
	})

	g.epochs++
	g.totalStats.Blocks += stats.Blocks
	g.totalStats.Elements += stats.Elements
	g.totalStats.Atomics += stats.Atomics
	g.totalStats.BlockSize = stats.BlockSize
}

// Loss returns the loss the solver optimizes.
func (g *GPU) Loss() Loss { return g.loss }

// Device returns the device the solver runs on.
func (g *GPU) Device() *gpusim.Device { return g.dev }

// BlockSize returns the configured threads-per-block.
func (g *GPU) BlockSize() int { return g.blockSize }

// Model returns a host copy of the device-resident model weights.
func (g *GPU) Model() []float32 {
	out := make([]float32, g.model.Len())
	g.ReadModel(out)
	return out
}

// ReadModel copies the device-resident model weights into dst.
func (g *GPU) ReadModel(dst []float32) { copy(dst, g.model.Host()) }

// SetModel uploads model weights to the device. A distributed worker
// calls it every round: the aggregation rescales the local model on the
// host (see internal/dist).
func (g *GPU) SetModel(m []float32) { copy(g.model.Host(), m) }

// UploadShared copies a host shared vector to the device and returns the
// modeled PCIe seconds (pinned staging, as in the paper's Fig. 7: only
// the shared vector moves between epochs of a distributed run).
func (g *GPU) UploadShared(src []float32) float64 {
	return g.dev.CopyToDevice(g.shared, src, true)
}

// DownloadShared copies the device shared vector into dst and returns the
// modeled PCIe seconds.
func (g *GPU) DownloadShared(dst []float32) float64 {
	return g.dev.CopyFromDevice(dst, g.shared, true)
}

// SharedVector returns the device shared vector (host view, no transfer
// accounting).
func (g *GPU) SharedVector() []float32 { return g.shared.Host() }

// Gap returns the honest convergence certificate recomputed from the model
// alone.
func (g *GPU) Gap() float64 { return g.loss.Gap(g.Model()) }

// Form reports the formulation.
func (g *GPU) Form() perfmodel.Form { return g.loss.Form() }

// Name identifies the solver and device.
func (g *GPU) Name() string {
	return fmt.Sprintf("TPA-%s (%s)", g.loss.Name(), g.dev.Profile.Name)
}

// EpochWork returns per-epoch work counts.
func (g *GPU) EpochWork() (int64, int64) { return g.loss.NNZ(), int64(g.loss.NumCoords()) }

// EpochSeconds returns the modeled device time of one epoch.
func (g *GPU) EpochSeconds() float64 {
	return g.dev.Profile.EpochSeconds(g.loss.Form(), g.loss.NNZ(), int64(g.loss.NumCoords()), g.blockSize)
}

// TotalStats returns the kernel counters accumulated over all epochs.
func (g *GPU) TotalStats() gpusim.KernelStats { return g.totalStats }
