package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/serve"
	"pipelayer/internal/tensor"
)

const (
	// replicas is the serving fan-out on every workload: one whole-model
	// replica (or chain worker) per CPU of the 2-vCPU reference host.
	replicas = 2
	// passes is how many times an untraced run sets the system up from
	// nothing and then loads it at the low and the high rate; each
	// end-to-end figure is the median over the passes. The reference host
	// slows by up to 40% for 10–20 s at a time, so a figure measured in one
	// block of the run moved with whether a slow spell hit that block;
	// spread over the run in passes, a spell moves only a minority of them.
	// The first set-up of a process also runs up to twice as long as the
	// rest (fresh heap, first page faults), which a median of five absorbs.
	passes = 5
	// poolSize is the number of distinct request inputs per run.
	poolSize = 16
	// trainBatch and trainLR are the set-up training hyper-parameters.
	trainBatch = 8
	trainLR    = 0.05
)

// trainMachine builds, programs and trains the accelerator for spec on n
// synthetic images drawn from seed, returning it with the wall time the
// Train call took.
func trainMachine(spec networks.Spec, n int, seed int64) (*core.Accelerator, time.Duration, error) {
	acc := core.New(energy.DefaultModel())
	if err := acc.TopologySet(spec, 1); err != nil {
		return nil, 0, err
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(seed))); err != nil {
		return nil, 0, err
	}
	train := dataset.Generate(n, dataset.DefaultOptions(isFlat(spec)), seed)
	t0 := time.Now()
	if _, err := acc.Train(train, trainBatch, trainLR); err != nil {
		return nil, 0, fmt.Errorf("train %s: %w", spec.Name, err)
	}
	return acc, time.Since(t0), nil
}

func isFlat(spec networks.Spec) bool { return spec.Layers[0].Kind == mapping.KindFC }

// requestPool returns the run's distinct request inputs and a pick function
// mapping a global request index to one of them, both derived from seed.
func requestPool(spec networks.Spec, seed int64) ([]*tensor.Tensor, func(int) int) {
	samples := dataset.Generate(poolSize, dataset.DefaultOptions(isFlat(spec)), seed+7)
	pool := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		pool[i] = s.Input
	}
	mix := uint64(seed)*0x9e3779b97f4a7c15 + 1
	pick := func(i int) int { return int(splitmix(mix^uint64(i)) % uint64(len(pool))) }
	return pool, pick
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// referenceFor runs every pool input through the serial single-request
// path of a fresh replica of acc: the bits every served response must
// reproduce.
func referenceFor(acc *core.Accelerator, pool []*tensor.Tensor) ([][]float64, error) {
	r, err := acc.NewReplica()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(pool))
	for i, x := range pool {
		out[i] = r.Infer(x).Data()
	}
	return out, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifiedSend predicts through srv and bit-compares each response with
// ref, the serial reference of the initial weights (version 1), which every
// response of a serve workload's load phases must report.
func verifiedSend(srv *serve.Server, pool []*tensor.Tensor, pick func(int) int, ref [][]float64) sendFunc {
	return func(ctx context.Context, i int) error {
		k := pick(i)
		res, err := srv.Predict(ctx, pool[k])
		if err != nil {
			return err
		}
		if res.Version != 1 || !sameBits(res.Scores.Data(), ref[k]) {
			return errWrongBits
		}
		return nil
	}
}
