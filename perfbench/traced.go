package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/mapping"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/serve"
	"pipelayer/internal/shard"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// The traced run measures per-layer figures only; its end-to-end numbers
// are never reported. It runs the workload's low rate twice — untraced,
// then with the flight recorder at TraceDepth 2 and a telemetry registry —
// plus a traced high-rate phase, then replays each layer directly.

const (
	// traceDepth is how deep the serving trace reaches: request stages,
	// per-layer forwards and every crossbar readout.
	traceDepth = 2
	// serveTraceCapacity bounds the serving recorder. At depth 2 a Mnist-0
	// request records some 650 readout spans, so the ring keeps the last
	// hundred or so requests — the tail the Perfetto artifact shows.
	serveTraceCapacity = 1 << 16
	// tracedShare scales the traced run's phases: the untraced and the
	// traced low phase each get this share of the end-to-end run's low
	// phase, and the traced high phase the same share of its high phase.
	tracedShare = 0.85
	// replayBudget is how long each replayed call is repeated; its median
	// is reported.
	replayBudget = 300 * time.Millisecond
	// bmax is the largest batch the serve layer forms (serve's default
	// MaxBatch): the size batches reach at ladder capacity.
	bmax = 16
)

// perLayerNames lists every per-layer metric. Each traced run reports all
// of them; a layer the workload does not exercise (a conv layer of an MLP,
// the shard chain of an unsharded server) reports 0.
func perLayerNames() []string {
	names := []string{
		"serve.queue_wait_ms.p50", "serve.batch_wait_ms.p50", "serve.compute_ms.p50",
		"serve.batch_size.mean", "serve.batch1_frac", "serve.shed_frac",
		"serve.queue_wait_ms.p50.high", "serve.batch_wait_ms.p50.high", "serve.compute_ms.p50.high",
		"serve.batch_size.mean.high",
		"core.forward_ms.b1", "core.forward_ms_per_req.bmax",
		"core.kb_per_req.b1", "core.allocs_per_req.b1", "core.train_ms_per_img", "core.test_ms_per_img",
		"arch.readouts_per_req.b1", "arch.readouts_per_req.bmax", "arch.readout_share", "arch.macs_per_req",
		"shard.imbalance", "shard.forward_ms.b1",
		"online.round_ms", "online.eval_ms", "online.swap_ms", "online.rollback_frac",
		"checkpoint.save_ms", "checkpoint.kb_per_version",
		"trace.overhead_frac", "gen.late_ms.p99",
	}
	for _, l := range layerNames() {
		names = append(names, "core.layer_ms."+l)
	}
	for k := 0; k < trainServe.serveConfig().Shards; k++ {
		names = append(names, "shard.util."+strconv.Itoa(k))
	}
	return names
}

// layerNames is the union of the workloads' layer names, in network order.
func layerNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range []networks.Spec{networks.MnistA(), networks.Mnist0()} {
		for _, l := range s.Layers {
			if !seen[l.Name] {
				seen[l.Name] = true
				names = append(names, l.Name)
			}
		}
	}
	return names
}

// perLayerUnit gives each per-layer metric family its unit.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac") || name == "arch.readout_share" || name == "shard.imbalance" || strings.HasPrefix(name, "shard.util."):
		return "ratio"
	case strings.HasPrefix(name, "serve.batch_size"), strings.HasPrefix(name, "arch.readouts_per_req"), name == "core.allocs_per_req.b1":
		return "count"
	case name == "arch.macs_per_req":
		return "MAC"
	case strings.HasPrefix(name, "core.kb_per_req"), name == "checkpoint.kb_per_version":
		return "KiB"
	}
	return "ms"
}

// zeroPerLayer sets every per-layer metric to 0 before a traced run fills
// in the ones its workload exercises.
func zeroPerLayer(rep *report) {
	for _, n := range perLayerNames() {
		rep.set(n, 0, perLayerUnit(n))
	}
}

func (r *report) layer(name string, v float64) { r.set(name, v, perLayerUnit(name)) }

// tracedConfig adds to cfg the registry and recorder the serve layer's
// per-layer figures are read from.
func tracedConfig(cfg serve.Config, reg *telemetry.Registry, rec *flight.Recorder) serve.Config {
	cfg.Metrics = reg
	cfg.Flight = rec
	cfg.TraceDepth = traceDepth
	return cfg
}

// serveStages reads the serve layer's per-request stage split from the
// recorder: the medians of serve_queue_wait, serve_batch_wait and
// serve_compute over the requests whose three spans are all still in the
// ring.
func serveStages(rec *flight.Recorder) (queue, batch, compute float64, n int) {
	type split struct{ q, b, c float64 }
	byTrace := map[uint64]*split{}
	for _, e := range rec.Events() {
		if e.Track != flight.TrackRequests || e.Trace == 0 {
			continue
		}
		s := byTrace[e.Trace]
		if s == nil {
			s = &split{-1, -1, -1}
			byTrace[e.Trace] = s
		}
		d := float64(e.Dur()) / 1e6
		switch e.Name {
		case "serve_queue_wait":
			s.q = d
		case "serve_batch_wait":
			s.b = d
		case "serve_compute":
			s.c = d
		}
	}
	var qs, bs, cs []float64
	for _, s := range byTrace {
		if s.q >= 0 && s.b >= 0 && s.c >= 0 {
			qs, bs, cs = append(qs, s.q), append(bs, s.b), append(cs, s.c)
		}
	}
	return median(qs), median(bs), median(cs), len(qs)
}

// batchStats reads the batch-size histogram delta between two snapshots:
// the mean batch size and the share of batches of one request.
func batchStats(before, after telemetry.Snapshot) (meanSize, ones float64) {
	a, b := after.Histograms["serve_batch_size"], before.Histograms["serve_batch_size"]
	count := float64(a.Count - b.Count)
	if count == 0 {
		return 0, 0
	}
	first := func(h telemetry.HistogramSnapshot) uint64 {
		if len(h.Counts) == 0 {
			return 0
		}
		return h.Counts[0] // bucket ≤ 1
	}
	return (a.Sum - b.Sum) / count, float64(first(a)-first(b)) / count
}

// traceServePhase runs one traced phase and records the serve layer's
// figures under the given metric suffix ("" for low, ".high"); the low
// phase also records the shard chain's utilization when there is one.
func traceServePhase(ctx context.Context, ph phase, rng *rand.Rand, first int, send sendFunc, reg *telemetry.Registry, rec *flight.Recorder, suffix string, rep *report) phaseResult {
	rec.Reset()
	before := reg.Snapshot()
	res := openLoop(ctx, ph, rng, first, send)
	after := reg.Snapshot()
	q, b, c, n := serveStages(rec)
	rep.layer("serve.queue_wait_ms.p50"+suffix, q)
	rep.layer("serve.batch_wait_ms.p50"+suffix, b)
	rep.layer("serve.compute_ms.p50"+suffix, c)
	size, ones := batchStats(before, after)
	rep.layer("serve.batch_size.mean"+suffix, size)
	rep.Notes["stage_split_requests"+suffix] = n
	if suffix == "" {
		for k := 0; ; k++ {
			name := telemetry.Name("serve_shard_busy_seconds", map[string]string{"shard": strconv.Itoa(k)})
			busy, ok := after.Spans[name]
			if !ok {
				break
			}
			rep.layer("shard.util."+strconv.Itoa(k), (busy.TotalSeconds-before.Spans[name].TotalSeconds)/res.WallS)
		}
		rep.layer("serve.batch1_frac", ones)
		shed := after.Counters["serve_overloaded_total"] - before.Counters["serve_overloaded_total"]
		total := after.Counters["serve_requests_total"] - before.Counters["serve_requests_total"] + shed
		if total > 0 {
			rep.layer("serve.shed_frac", float64(shed)/float64(total))
		}
	}
	return res
}

// writeTrace writes a recorder's Perfetto (Chrome trace_event) JSON as an
// artifact of the run.
func writeTrace(rec *flight.Recorder, rep *report, suffix string) error {
	path := rep.artifact(suffix)
	if err := rec.WriteChromeFile(path); err != nil {
		return err
	}
	rep.Notes["trace_events_dropped"+strings.TrimSuffix(suffix, ".trace.json")] = rec.Dropped()
	return nil
}

func (b serveBench) runTraced(ctx context.Context, o options, rep *report) error {
	zeroPerLayer(rep)
	spec := b.spec()
	acc, trainDur, err := trainMachine(spec, b.trainImages, o.seed)
	if err != nil {
		return err
	}
	rep.layer("core.train_ms_per_img", ms(trainDur)/float64(b.trainImages))
	pool, pick := requestPool(spec, o.seed)
	ref, err := referenceFor(acc, pool)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	next := 0
	seconds := tracedShare * b.lowShare * o.seconds

	// Untraced low phase: the baseline of the tracing overhead.
	plain, err := serve.New(acc, serveConfig())
	if err != nil {
		return err
	}
	lowPh := fixedPhase("low", b.lowRPS, seconds)
	untraced := openLoop(ctx, lowPh, rng, next, verifiedSend(plain, pool, pick, ref))
	next += lowPh.Warm + lowPh.N
	rep.addPhase(untraced, true)
	if err := plain.Close(); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	rec := flight.New(flight.Config{Capacity: serveTraceCapacity})
	srv, err := serve.New(acc, tracedConfig(serveConfig(), reg, rec))
	if err != nil {
		return err
	}
	defer srv.Close()
	send := verifiedSend(srv, pool, pick, ref)
	lowPh.Name = "low-traced"
	traced := traceServePhase(ctx, lowPh, rng, next, send, reg, rec, "", rep)
	next += lowPh.Warm + lowPh.N
	rep.addPhase(traced, true)
	highPh := fixedPhase("high-traced", b.highRPS, tracedShare*b.highShare*o.seconds)
	rep.addPhase(traceServePhase(ctx, highPh, rng, next, send, reg, rec, ".high", rep), true)
	if err := srv.Close(); err != nil {
		return err
	}
	if err := writeTrace(rec, rep, ".serve.trace.json"); err != nil {
		return err
	}
	rep.layer("trace.overhead_frac", traced.P50Ms/untraced.P50Ms-1)
	rep.layer("gen.late_ms.p99", untraced.LateMs)

	samples := dataset.Generate(poolSize, dataset.DefaultOptions(isFlat(spec)), o.seed+7)
	if err := replayCore(acc, samples, rep); err != nil {
		return err
	}
	return replayArch(acc, pool, rep)
}

// timeMedian repeats f for replayBudget (at least five times) and returns
// the median wall time of one call in milliseconds.
func timeMedian(f func()) float64 {
	var ts []float64
	begin := time.Now()
	for len(ts) < 5 || time.Since(begin) < replayBudget {
		t0 := time.Now()
		f()
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

// replayCore calls the core layer directly: whole-replica forwards at batch
// 1 and bmax, each engine alone through Sub(k,k+1), allocation per request
// at batch 1, and Test per image.
func replayCore(acc *core.Accelerator, samples []nn.Sample, rep *report) error {
	r, err := acc.NewReplica()
	if err != nil {
		return err
	}
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = s.Input
	}
	x := xs[:1]
	rep.layer("core.forward_ms.b1", timeMedian(func() { r.Forward(x) }))
	rep.layer("core.forward_ms_per_req.bmax", timeMedian(func() { r.Forward(xs[:bmax]) })/bmax)

	spec := acc.Spec()
	in := x
	for k := 0; k < r.Engines(); k++ {
		sub, err := r.Sub(k, k+1)
		if err != nil {
			return err
		}
		layerIn := in
		name := fmt.Sprintf("engine%d", k)
		if r.Engines() == len(spec.Layers) {
			name = spec.Layers[k].Name
		}
		rep.layer("core.layer_ms."+name, timeMedian(func() { sub.Forward(layerIn) }))
		if in, err = sub.Forward(in); err != nil {
			return err
		}
	}

	const allocReqs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocReqs; i++ {
		r.Forward(x)
	}
	runtime.ReadMemStats(&m1)
	rep.layer("core.kb_per_req.b1", float64(m1.TotalAlloc-m0.TotalAlloc)/allocReqs/1024)
	rep.layer("core.allocs_per_req.b1", float64(m1.Mallocs-m0.Mallocs)/allocReqs)

	var testErr error
	perImg := timeMedian(func() {
		if _, err := acc.Test(samples); err != nil {
			testErr = err
		}
	}) / float64(len(samples))
	rep.layer("core.test_ms_per_img", perImg)
	return testErr
}

// replayArch counts and times the crossbar readouts of one request by
// tracing a fresh replica at depth 2: the exact number of arch_readout*
// spans per request at batch 1 and bmax, and the share of forward time
// spent inside readouts.
func replayArch(acc *core.Accelerator, pool []*tensor.Tensor, rep *report) error {
	r, err := acc.NewReplica()
	if err != nil {
		return err
	}
	rec := flight.New(flight.Config{Capacity: 1 << 16})
	r.AttachFlight(rec, 1, traceDepth)
	count := func(batch []*tensor.Tensor) (readouts int, readoutNs, forwardNs int64) {
		rec.Reset()
		r.Forward(batch)
		for _, e := range rec.Events() {
			switch {
			case strings.HasPrefix(e.Name, "arch_readout"):
				readouts++
				readoutNs += e.Dur()
			case e.Name == "core_layer_forward":
				forwardNs += e.Dur()
			}
		}
		return readouts, readoutNs, forwardNs
	}
	n1, _, _ := count(pool[:1])
	nb, _, _ := count(pool[:bmax])
	rep.layer("arch.readouts_per_req.b1", float64(n1))
	rep.layer("arch.readouts_per_req.bmax", float64(nb)/bmax)
	var shares []float64
	begin := time.Now()
	for len(shares) < 5 || time.Since(begin) < replayBudget {
		_, rd, fw := count(pool[:1])
		if fw > 0 {
			shares = append(shares, float64(rd)/float64(fw))
		}
	}
	rep.layer("arch.readout_share", median(shares))
	rep.layer("arch.macs_per_req", macs(acc.Spec()))
	rep.Notes["arch.macs_per_req"] = "computed from layer shapes, not measured"
	return nil
}

// macs is the multiply-accumulate count of one inference, from the layer
// shapes: in×out per inner-product layer, outC×k²×inC per output pixel per
// convolution; pooling has none.
func macs(spec networks.Spec) float64 {
	total := 0.0
	for _, l := range spec.Layers {
		switch l.Kind {
		case mapping.KindFC:
			total += float64(l.FCIn * l.FCOut)
		case mapping.KindConv:
			total += float64(l.OutC*l.K*l.K*l.InC) * float64(l.OutH()*l.OutW())
		}
	}
	return total
}

// replayCheckpoint times Store.Save of spec's weights into a fresh store on
// the same filesystem as the workload's store, and sizes one version file.
func replayCheckpoint(dir string, spec networks.Spec, rep *report) error {
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return err
	}
	net := networks.BuildTrainable(spec, rand.New(rand.NewSource(0)))
	v := uint64(0)
	var saveErr error
	rep.layer("checkpoint.save_ms", timeMedian(func() {
		v++
		if err := store.Save(net, 0, v, checkpoint.StateCandidate); err != nil {
			saveErr = err
		}
	}))
	if saveErr != nil {
		return saveErr
	}
	st, err := os.Stat(store.Path(1))
	if err != nil {
		return err
	}
	rep.layer("checkpoint.kb_per_version", float64(st.Size())/1024)
	return nil
}

// replayShard times one request through a chain partitioned the way the
// server's was (balanced over the same registry's measured stage costs).
func replayShard(acc *core.Accelerator, reg *telemetry.Registry, pool []*tensor.Tensor, rep *report) error {
	r, err := acc.NewReplica()
	if err != nil {
		return err
	}
	chain, err := shard.New(r, shard.Config{Shards: trainServe.serveConfig().Shards, Metrics: reg})
	if err != nil {
		return err
	}
	defer chain.Close()
	x := pool[:1]
	var fwdErr error
	rep.layer("shard.forward_ms.b1", timeMedian(func() {
		if _, err := chain.Forward(x); err != nil {
			fwdErr = err
		}
	}))
	rep.Notes["shard_ranges"] = chain.Ranges()
	return fwdErr
}
