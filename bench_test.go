package pipelayer_test

// The benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating its data and reporting the headline number as a custom
// metric), plus the design-choice ablations called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	pipelayer "pipelayer"
	"pipelayer/internal/arch"
	"pipelayer/internal/energy"
	"pipelayer/internal/experiments"
	"pipelayer/internal/mapping"
	"pipelayer/internal/memsys"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/pipeline"
	"pipelayer/internal/tensor"
	"pipelayer/internal/testutil"
)

// BenchmarkTable1CycleOps regenerates Table 1 (break of operations in a
// cycle) and reports the longest chain length.
func BenchmarkTable1CycleOps(b *testing.B) {
	var longest int
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		longest = len(arch.LongestCase(r.Cases).Ops)
	}
	b.ReportMetric(float64(longest), "ops/longest-cycle")
}

// BenchmarkTable2Formulas regenerates Table 2 and cross-checks every closed
// form against the event-driven simulation.
func BenchmarkTable2Formulas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !experiments.Table2().Verified() {
			b.Fatal("Table 2 verification failed")
		}
	}
}

// BenchmarkTable5DefaultG regenerates the default granularity table for the
// five VGG variants and reports the largest default G.
func BenchmarkTable5DefaultG(b *testing.B) {
	s := experiments.DefaultSetup()
	var maxG int
	for i := 0; i < b.N; i++ {
		r := experiments.Table5(s)
		maxG = 0
		for _, row := range r.Rows {
			for _, g := range row.G {
				if g > maxG {
					maxG = g
				}
			}
		}
	}
	b.ReportMetric(float64(maxG), "max-default-G")
}

// BenchmarkFigure7Latency regenerates the pipelined-vs-sequential latency
// curves and reports the asymptotic cycle-count ratio.
func BenchmarkFigure7Latency(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7(5, 64)
		last := r.Points[len(r.Points)-1]
		ratio = float64(last.NonPipelinedCycles) / float64(last.Pipelined)
	}
	b.ReportMetric(ratio, "np/pipe-cycles")
}

// BenchmarkFigure13Resolution runs a reduced resolution/accuracy study
// (training five networks and sweeping weight bit widths) and reports the
// 2-bit normalized accuracy of the most sensitive network, C-4.
func BenchmarkFigure13Resolution(b *testing.B) {
	cfg := experiments.Figure13Config{
		TrainSamples: 200, TestSamples: 100, Epochs: 2, Batch: 10,
		LearningRate: 0.08, Seed: 3, Bits: []int{8, 4, 2},
	}
	var c4At2 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure13(cfg)
		c4At2 = r.Rows[4].Normalized[2]
	}
	b.ReportMetric(c4At2, "C4-2bit-normacc")
}

// BenchmarkFigure15Speedup regenerates the speedup figure and reports the
// paper's headline metric (testing geomean; paper: 42.45×).
func BenchmarkFigure15Speedup(b *testing.B) {
	s := experiments.DefaultSetup()
	var geo float64
	for i := 0; i < b.N; i++ {
		geo = experiments.Figure15(s).GeoTest
	}
	b.ReportMetric(geo, "geomean-test-speedup")
}

// BenchmarkFigure16Energy regenerates the energy-saving figure and reports
// the overall geomean (paper: 7.17×).
func BenchmarkFigure16Energy(b *testing.B) {
	s := experiments.DefaultSetup()
	var geo float64
	for i := 0; i < b.N; i++ {
		geo = experiments.Figure16(s).GeoOverall
	}
	b.ReportMetric(geo, "geomean-energy-saving")
}

// BenchmarkFigure17Granularity regenerates the λ-sweep speedups and reports
// the λ=∞ / λ=1 saturation ratio for VGG-E.
func BenchmarkFigure17Granularity(b *testing.B) {
	s := experiments.DefaultSetup()
	var sat float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure17(s)
		row := r.Rows[len(r.Rows)-1]
		sat = row.Values[len(row.Values)-1] / row.Values[3]
	}
	b.ReportMetric(sat, "vggE-sat-ratio")
}

// BenchmarkFigure18Area regenerates the λ-sweep areas and reports VGG-E's
// λ=1 area in mm².
func BenchmarkFigure18Area(b *testing.B) {
	s := experiments.DefaultSetup()
	var area float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure18(s)
		area = r.Rows[len(r.Rows)-1].Values[3]
	}
	b.ReportMetric(area, "vggE-area-mm2")
}

// BenchmarkSection66Efficiency regenerates the efficiency comparison and
// reports PipeLayer's computational efficiency (paper: 1485 GOPS/s/mm²).
func BenchmarkSection66Efficiency(b *testing.B) {
	s := experiments.DefaultSetup()
	var eff float64
	for i := 0; i < b.N; i++ {
		eff = experiments.Section66(s).PipeLayer().GOPSPerMM2
	}
	b.ReportMetric(eff, "GOPS/s/mm2")
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAblationSpikeVsVoltage quantifies the Section 1 trade-off of the
// spike-coded input scheme: driving a 16-bit value takes 16 time slots where
// a voltage-level scheme takes one, so a single pass is slower ("such design
// requires more cycles to inject data") — the reported time ratio is the
// cost the pipelined architecture amortizes. In exchange, every DAC on the
// input side and every ADC on the output side disappears; the per-image ADC
// conversion count the voltage scheme would need is reported alongside.
func BenchmarkAblationSpikeVsVoltage(b *testing.B) {
	spec := networks.AlexNet()
	m := energy.DefaultModel()
	plans := m.BalancedPlans(spec.Layers, mapping.DefaultArray, 1)
	voltage := m
	voltage.SpikeBits = 1 // one voltage level per value, ADC-sampled outputs
	var slowdown, conversions float64
	for i := 0; i < b.N; i++ {
		spike := m.TestingTime(spec, plans, 6400, true)
		volt := voltage.TestingTime(spec, plans, 6400, true)
		slowdown = spike / volt
		conversions = 0
		for _, p := range plans {
			if p.Layer.UsesArrays() {
				conversions += float64(p.Layer.Windows()) * float64(p.Layer.OutputLen()) * float64(p.RowTiles)
			}
		}
	}
	b.ReportMetric(slowdown, "spike/voltage-time")
	b.ReportMetric(conversions/1e6, "Mconversions/img-eliminated")
}

// BenchmarkAblationBatchSize sweeps the batch size and reports the pipeline
// fill/drain overhead ratio (2L+1)/B at B=64 for an AlexNet-depth network.
func BenchmarkAblationBatchSize(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		L, N := 8, 6400
		for _, B := range []int{1, 4, 16, 64, 256} {
			if N%B != 0 {
				continue
			}
			c := mapping.PipelinedTrainingCycles(L, B, N)
			ideal := N // one cycle per image
			overhead = float64(c)/float64(ideal) - 1
		}
	}
	b.ReportMetric(overhead, "fill-drain-overhead@B=256")
}

// BenchmarkAblationConvIm2col measures the im2col+matmul convolution.
func BenchmarkAblationConvIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(16, 28, 28).RandNormal(rng, 0, 1)
	k := tensor.New(32, 16, 3, 3).RandNormal(rng, 0, 1)
	bias := tensor.New(32).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, k, bias, 1, 1)
	}
}

// BenchmarkAblationConvDirect measures the direct loop-nest convolution —
// the baseline the im2col path is ablated against.
func BenchmarkAblationConvDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(16, 28, 28).RandNormal(rng, 0, 1)
	k := tensor.New(32, 16, 3, 3).RandNormal(rng, 0, 1)
	bias := tensor.New(32).RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DDirect(x, k, bias, 1, 1)
	}
}

// BenchmarkAblationPipeline compares event-simulated pipelined vs
// non-pipelined schedules at VGG-E depth and reports the cycle ratio.
func BenchmarkAblationPipeline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		L, B, N := 19, 64, 1280
		p := pipeline.Simulate(pipeline.Config{L: L, B: B, N: N, Pipelined: true, Training: true})
		np := pipeline.Simulate(pipeline.Config{L: L, B: B, N: N, Training: true})
		ratio = float64(np.Cycles) / float64(p.Cycles)
	}
	b.ReportMetric(ratio, "np/pipe-cycles")
}

// BenchmarkAblationDeepPipeline quantifies the Section 3.2.2 argument: the
// training-cycle penalty of an ISAAC-style deep pipeline over PipeLayer's
// coarse one at batch 64 on AlexNet.
func BenchmarkAblationDeepPipeline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.ISAACComparison()
		for _, row := range r.Rows {
			if row.Batch == 64 {
				ratio = row.ISAACStyle / row.PipeLayer
			}
		}
	}
	b.ReportMetric(ratio, "deep/pipe-cycles@B=64")
}

// BenchmarkAblationDeviceVariation runs a reduced accuracy-vs-variation
// study and reports the M-C normalized accuracy at σ = 0.1.
func BenchmarkAblationDeviceVariation(b *testing.B) {
	cfg := experiments.VariationConfig{
		TrainSamples: 200, TestSamples: 100, Epochs: 2, Batch: 10,
		LearningRate: 0.08, Seed: 5, Sigmas: []float64{0, 0.1}, Bits: 8,
	}
	var acc float64
	for i := 0; i < b.N; i++ {
		r := experiments.VariationStudy(cfg)
		acc = r.Rows[1].Normalized[1]
	}
	b.ReportMetric(acc, "MC-normacc@sigma=0.1")
}

// BenchmarkAnalogTrainingEpoch measures one full analog training epoch
// through the integrated accelerator, serially and across worker-pool sizes:
// the Mnist-A MLP on 100 images, and the Mnist-0 CNN (prefix "mnist0-") on
// 16, whose conv stages read every window plane out in one batched readout.
// It is the paired benchmark behind the parallel-backend acceptance
// criterion (results are bit-identical at every size; see internal/core's
// determinism and golden tests).
func BenchmarkAnalogTrainingEpoch(b *testing.B) {
	mlpTrain, _ := pipelayer.SyntheticDigits(100, 1, true, 3)
	cnnTrain, _ := pipelayer.SyntheticDigits(16, 1, false, 3)
	nets := []struct {
		prefix string
		spec   networks.Spec
		train  []pipelayer.Sample
		batch  int
	}{
		{"", networks.MnistA(), mlpTrain, 10},
		{"mnist0-", networks.Mnist0(), cnnTrain, 8},
	}
	for _, net := range nets {
		for _, w := range []int{1, 2, 4} {
			name := "serial"
			if w > 1 {
				name = fmt.Sprintf("workers-%d", w)
			}
			b.Run(net.prefix+name, func(b *testing.B) {
				old := pipelayer.Workers()
				pipelayer.SetWorkers(w)
				defer pipelayer.SetWorkers(old)
				a := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
				if err := a.TopologySet(net.spec, 1); err != nil {
					b.Fatal(err)
				}
				if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.Train(net.train, net.batch, 0.05); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAnalogTrainingEpochTelemetry is BenchmarkAnalogTrainingEpoch with
// a metrics registry attached — the pair bounds the instrumentation overhead
// (acceptance: <5%). It also snapshots the registry and reports the recorded
// per-image forward time, demonstrating span data riding along with timings.
func BenchmarkAnalogTrainingEpochTelemetry(b *testing.B) {
	a := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
	if err := a.TopologySet(networks.MnistA(), 1); err != nil {
		b.Fatal(err)
	}
	if err := a.WeightLoad(nil, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	reg := pipelayer.NewMetricsRegistry()
	a.SetMetrics(reg)
	train, _ := pipelayer.SyntheticDigits(100, 1, true, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Train(train, 10, 0.05); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := reg.Snapshot()
	if s, ok := snap.Spans[`core_stage_forward_seconds{stage="1"}`]; ok && s.Count > 0 {
		b.ReportMetric(s.MeanSeconds*1e9, "fwd-ns/image")
	}
}

// BenchmarkCompilerOptimize measures the Section 5.2 granularity compiler
// on AlexNet and reports its speed advantage over the uniform λ=1 mapping
// at equal area.
func BenchmarkCompilerOptimize(b *testing.B) {
	m := energy.DefaultModel()
	spec := networks.AlexNet()
	uniform := m.BalancedPlans(spec.Layers, mapping.DefaultArray, 1)
	budget := m.Area(spec, uniform, 64)
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := pipelayer.OptimizeMapping(m, spec, 64, budget)
		if err != nil {
			b.Fatal(err)
		}
		gain = m.CycleTime(uniform) / res.CycleTime
	}
	b.ReportMetric(gain, "compiler/uniform-cycle")
}

// BenchmarkMemorySystemStream measures the banked memory simulator moving a
// VGG conv1-sized output volume and reports achieved bandwidth.
func BenchmarkMemorySystemStream(b *testing.B) {
	cfg := pipelayer.DefaultMemoryConfig()
	values := 64 * 224 * 224 // VGG conv1 output
	var bw float64
	for i := 0; i < b.N; i++ {
		s := memsys.NewSystem(cfg)
		elapsed := s.StreamTransfer(0, values, true)
		bw = memsys.AchievedBandwidth(values, elapsed)
	}
	b.ReportMetric(bw/1e9, "Gvalues/s")
}

// BenchmarkParallelAnalogAccuracy measures multi-worker analog evaluation.
func BenchmarkParallelAnalogAccuracy(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	net := networks.BuildTrainable(networks.MnistA(), rng)
	m := arch.BuildMachine(net, 16)
	samples, _ := pipelayer.SyntheticDigits(256, 1, true, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AccuracyParallel(samples, 0)
	}
}

// BenchmarkMachineInference measures full analog inference through the
// PipeLayer machine (quantized crossbar datapath) on the Mnist-0 CNN.
func BenchmarkMachineInference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := networks.BuildTrainable(networks.Mnist0(), rng)
	m := arch.BuildMachine(net, 16)
	x := tensor.New(1, 28, 28).RandUniform(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkFrameworkTrainStep measures one software training step (forward +
// backward) of the Mnist-0 CNN — the substrate cost baseline.
func BenchmarkFrameworkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := networks.BuildTrainable(networks.Mnist0(), rng)
	x := tensor.New(1, 28, 28).RandUniform(rng, 0, 1)
	sample := nn.Sample{Input: x, Label: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(sample)
		if i%64 == 63 {
			net.ApplyUpdate(0.01, 64)
			net.ZeroGrads()
		}
	}
}

// benchServeAccel builds a weight-loaded tiny-MLP accelerator for the
// serving benchmarks.
func benchServeAccel(b *testing.B) *pipelayer.Accelerator {
	b.Helper()
	acc := pipelayer.NewAccelerator(pipelayer.DefaultDeviceModel())
	if err := acc.TopologySet(testutil.TinyMLP("bench-serve"), 1); err != nil {
		b.Fatal(err)
	}
	if err := acc.WeightLoad(nil, rand.New(rand.NewSource(7))); err != nil {
		b.Fatal(err)
	}
	return acc
}

// BenchmarkServeSerial is the baseline: 16 requests answered one at a time
// through a batch-of-1 server (every readout is a single-column MatVec).
func BenchmarkServeSerial(b *testing.B) {
	acc := benchServeAccel(b)
	srv, err := pipelayer.NewServer(acc, pipelayer.ServeConfig{Replicas: 1, MaxBatch: 1, QueueCap: 32})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	samples := testutil.FlatSamples(16, 9)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			if _, err := srv.Predict(ctx, s.Input); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeBatched answers the same 16 requests concurrently through a
// batch-of-16 server: the scheduler coalesces them into one multi-column
// readout per weighted stage. The acceptance bar is ≥2× BenchmarkServeSerial
// requests/sec (compare the req/s metric).
func BenchmarkServeBatched(b *testing.B) {
	acc := benchServeAccel(b)
	srv, err := pipelayer.NewServer(acc, pipelayer.ServeConfig{
		Replicas: 1, MaxBatch: 16, MaxWait: 5 * time.Millisecond, QueueCap: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	samples := testutil.FlatSamples(16, 9)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, s := range samples {
			wg.Add(1)
			go func(x *tensor.Tensor) {
				defer wg.Done()
				if _, err := srv.Predict(ctx, x); err != nil {
					b.Error(err)
				}
			}(s.Input)
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "req/s")
}
