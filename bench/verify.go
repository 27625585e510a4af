package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"tpascd/internal/rng"
)

// checks counts the operations a run attempted and the ones that failed.
// An operation is an epoch, a round, a request or one of the correctness
// checks in this file; a check that does not hold is a failed operation.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string // first few failures, for the report
}

// ops records n operations that completed and need no further check.
func (c *checks) ops(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// ok records one checked operation; a false cond fails it.
func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if len(c.messages) < 8 {
			c.messages = append(c.messages, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// subSeed derives the seed of one named input stream. Every random input
// comes from here and from nowhere else, and the program under test only
// ever sees the generated inputs.
//
// The serving inputs — each client's request stream, the front tier's
// tie-breaks — derive from the run's --seed: a second seed gives an
// independent traffic sample.
//
// The training inputs do not (config.trainSeed): dataset, coordinate
// partition and permutation streams decide how much work reaching a gap is,
// not how fast the program does it. Measured on the primal workload,
// sequential SCD needs 13.5 to 18.5 epochs to the same relative gap
// depending on the dataset and permutation seeds, K=2 CoCoA 5 to 9 rounds,
// and a random partition of Zipf-popular features leaves the ranks'
// non-zeros up to 19 % apart. A time-to-gap taken over varying seeds
// measures the draw; for fixed inputs the epoch and round counts are exact
// and pinned (regime.ttgEpochs, regime.distRounds).
func subSeed(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rng.NewSplitMix64(seed ^ h.Sum64()).Uint64()
}

// trainSeeds are the two documented training input sets. Every run the
// driver makes trains on the first (the seed of datasets.WebspamDefault);
// --train-set 2 selects the second, which exists so that a claim made on
// the first can be confirmed on inputs it was not developed against.
var trainSeeds = [2]uint64{20170222, 20260926}

func (c config) trainSeed(stream string) uint64 { return subSeed(trainSeeds[c.trainSet], stream) }

// checkMargins decodes a /predict response and compares its margins with
// the in-process reference bit for bit. JSON carries float64 losslessly
// (shortest round-trip encoding), so Float64bits equality is the right
// test: routed answers must equal Model.Margin, sharded answers the
// unsharded model.
func checkMargins(body []byte, want []float64) error {
	var resp struct {
		Predictions []struct {
			Margin float64 `json:"margin"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("bad response: %w", err)
	}
	if len(resp.Predictions) != len(want) {
		return fmt.Errorf("%d predictions for %d rows", len(resp.Predictions), len(want))
	}
	for i, p := range resp.Predictions {
		if math.Float64bits(p.Margin) != math.Float64bits(want[i]) {
			return fmt.Errorf("row %d: margin %x, want %x", i, math.Float64bits(p.Margin), math.Float64bits(want[i]))
		}
	}
	return nil
}

// gapWithin checks a racy driver's convergence after its fixed epoch
// budget: the gap must be a number and at most bound times the zero-model
// gap. It is a check, never a gate on speed.
func gapWithin(gap, gap0, bound float64) bool {
	return !math.IsNaN(gap) && gap >= 0 && gap <= bound*gap0
}
