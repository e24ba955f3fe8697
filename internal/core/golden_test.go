package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"pipelayer/internal/dataset"
	"pipelayer/internal/fault"
	"pipelayer/internal/networks"
	"pipelayer/internal/parallel"
	"pipelayer/internal/tensor"
)

// goldenFaults is the faulty device of the pinned training digests: stuck
// cells, drift and spare-column remap with digital degrade all active.
var goldenFaults = fault.Config{Seed: 7, StuckOff: 0.01, StuckOn: 0.005, Drift: 0.02, Spares: 2, Degrade: true}

// weightsDigest is the first 8 bytes of the SHA-256 of the little-endian
// float64 bits of every master weight, in WeightsSnapshot order.
func weightsDigest(ws []*tensor.Tensor) string {
	h := sha256.New()
	var buf [8]byte
	for _, w := range ws {
		for _, v := range w.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// trainMnist0Digest trains Mnist-0 from seed 1 on 16 synthetic images (batch
// 8, lr 0.05) with the given executor and returns the weight digest.
func trainMnist0Digest(t *testing.T, workers int, faulty, pipelined bool) string {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)
	a := newAccel()
	if faulty {
		inj, err := fault.New(goldenFaults)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.TopologySet(networks.Mnist0(), 1); err != nil {
		t.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	train := dataset.Generate(16, dataset.DefaultOptions(false), 3)
	run := a.Train
	if pipelined {
		run = a.TrainPipelined
	}
	if _, err := run(train, 8, 0.05); err != nil {
		t.Fatal(err)
	}
	return weightsDigest(a.WeightsSnapshot())
}

// TestMnist0TrainingGolden pins the trained Mnist-0 weights of both
// executors, ideal and faulty, at several worker counts. The digests were
// recorded from the per-window readout implementation, so any change to the
// conv, pool or gradient kernels must keep training bit-identical to it.
func TestMnist0TrainingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains Mnist-0")
	}
	cases := []struct {
		name             string
		faulty, pipeline bool
		want             string
	}{
		{"train/ideal", false, false, "6e09a4049743624d"},
		{"train/faulty", true, false, "af9a43316b043585"},
		{"pipelined/ideal", false, true, "6e09a4049743624d"},
		{"pipelined/faulty", true, true, "4a02e2a9480c7890"},
	}
	for _, c := range cases {
		for _, w := range []int{1, 3} {
			if got := trainMnist0Digest(t, w, c.faulty, c.pipeline); got != c.want {
				t.Errorf("%s, %d workers: weight digest %s, want %s", c.name, w, got, c.want)
			}
		}
	}
}
