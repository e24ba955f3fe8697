package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pipelayer/internal/checkpoint"
	"pipelayer/internal/core"
	"pipelayer/internal/dataset"
	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/nn"
	"pipelayer/internal/online"
	"pipelayer/internal/serve"
	"pipelayer/internal/telemetry"
	"pipelayer/internal/telemetry/flight"
	"pipelayer/internal/tensor"
)

// trainServeBench is the train-while-serve workload: an online.Supervisor
// on Mnist-0 serving through a 3-shard chain while the benchmark drives its
// Step loop — training rounds, checkpoint snapshots, held-out eval and hot
// swaps that rebuild the chain under load — through the low-rate phase of
// each pass. After training stops in the last pass, the rate ladder
// measures the chain alone on the last promoted version. The high rate is
// served in traced runs only, for the serve layer's .high metrics.
type trainServeBench struct {
	name        string
	evalImages  int // held-out eval set: online.New and every promotion score it
	roundImages int // images per training round; every round snapshots and promotes
	lowRPS      float64
	highRPS     float64
	lowShare    float64
	highShare   float64
	ladder      []float64
	sloMs       float64
}

var trainServe = trainServeBench{
	name:        "cnn-train-serve",
	evalImages:  160,
	roundImages: 8,
	lowRPS:      40,
	highRPS:     80,
	lowShare:    0.5,
	highShare:   0.25,
	ladder:      []float64{45, 135, 405, 1215},
	sloMs:       100,
}

func (b trainServeBench) serveConfig() serve.Config {
	return serve.Config{Shards: 3, Replicas: replicas, QueueCap: queueCap}
}

func (b trainServeBench) spec() networks.Spec { return networks.Mnist0() }

// onlineConfig is the supervisor configuration. Tolerance 1 never rolls a
// candidate back, so every round promotes and every pass promotes several
// times.
func (b trainServeBench) onlineConfig(seed int64, dir string, eval []nn.Sample, reg *telemetry.Registry, rec *flight.Recorder) online.Config {
	return online.Config{
		Spec: b.spec(), Seed: seed, Dir: dir, Eval: eval,
		Serve: b.serveConfig(),
		Batch: trainBatch, RoundImages: b.roundImages, LR: trainLR,
		SnapshotEvery: 1, Tolerance: 1,
		Metrics: reg, Flight: rec,
	}
}

// storeRoot makes the directory the runs' checkpoint stores live under,
// inside the output directory, and names its filesystem.
func storeRoot(out string) (string, string, error) {
	dir, err := os.MkdirTemp(out, "store-")
	if err != nil {
		return "", "", err
	}
	return dir, fsName(dir), nil
}

// fsName names the filesystem holding dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// trainLog is what the Step loop did while serving ran.
type trainLog struct {
	stepMs    []float64
	promoteMs []float64 // Steps that promoted: round, snapshot, eval and swap
	images    int
	err       error
}

// trainUntil calls Step back to back until stop closes.
func (b trainServeBench) trainUntil(sup *online.Supervisor, stop <-chan struct{}) trainLog {
	var log trainLog
	for {
		select {
		case <-stop:
			return log
		default:
		}
		before := sup.Promotions()
		t0 := time.Now()
		if err := sup.Step(); err != nil {
			log.err = err
			return log
		}
		d := ms(time.Since(t0))
		log.stepMs = append(log.stepMs, d)
		log.images += b.roundImages
		if sup.Promotions() > before {
			log.promoteMs = append(log.promoteMs, d)
		}
	}
}

// whileTraining runs serving phases (f) while Step runs back to back on
// sup, then stops the trainer after its current Step.
func (b trainServeBench) whileTraining(sup *online.Supervisor, f func()) (trainLog, error) {
	stop := make(chan struct{})
	logc := make(chan trainLog, 1)
	go func() { logc <- b.trainUntil(sup, stop) }()
	f()
	close(stop)
	log := <-logc
	return log, log.err
}

// observation is one response, kept for verification after the run.
type observation struct {
	phase   int
	input   int
	version uint64
	scores  []float64
}

// recorder collects observations from concurrent requests.
type recorder struct {
	mu  sync.Mutex
	obs []observation
}

func (r *recorder) send(srv *serve.Server, pool []*tensor.Tensor, pick func(int) int, phase *int) sendFunc {
	return func(ctx context.Context, i int) error {
		k := pick(i)
		res, err := srv.Predict(ctx, pool[k])
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.obs = append(r.obs, observation{phase: *phase, input: k, version: res.Version, scores: res.Scores.Data()})
		r.mu.Unlock()
		return nil
	}
}

// verify bit-compares every observation with the serial reference of its
// version, rebuilt from the checkpoint store as the supervisor saved it.
// Mismatches are charged to their phase. Versions are checked one at a
// time, so only one reference machine is alive.
func (r *recorder) verify(dir string, spec networks.Spec, pool []*tensor.Tensor, rep *report) error {
	store, err := checkpoint.OpenStore(dir)
	if err != nil {
		return err
	}
	sort.Slice(r.obs, func(i, j int) bool { return r.obs[i].version < r.obs[j].version })
	net := networks.BuildTrainable(spec, rand.New(rand.NewSource(0)))
	versions := 0
	var (
		rp   *core.Replica
		refs [][]float64
	)
	for i, o := range r.obs {
		if i == 0 || o.version != r.obs[i-1].version {
			versions++
			if _, err := store.Load(o.version, net); err != nil {
				return fmt.Errorf("reference for v%d: %w", o.version, err)
			}
			m, err := core.NewFromSnapshot(energy.DefaultModel(), spec, 1, net)
			if err != nil {
				return err
			}
			if rp, err = m.NewReplica(); err != nil {
				return err
			}
			refs = make([][]float64, len(pool))
		}
		if refs[o.input] == nil {
			refs[o.input] = rp.Infer(pool[o.input]).Data()
		}
		if !sameBits(o.scores, refs[o.input]) {
			rep.wrongBits(o.phase)
		}
	}
	rep.Notes["versions_served"] = versions
	rep.Notes["responses_verified"] = len(r.obs)
	return nil
}

func (b trainServeBench) run(ctx context.Context, o options, rep *report) error {
	if o.trace {
		return b.runTraced(ctx, o, rep)
	}
	root, fs, err := storeRoot(o.out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	rep.Notes["checkpoint_fs"] = fs
	spec := b.spec()
	eval := dataset.Generate(b.evalImages, dataset.DefaultOptions(false), o.seed+1)
	pool, pick := requestPool(spec, o.seed)
	rng := rand.New(rand.NewSource(o.seed))
	next, phaseIdx := 0, 0
	var send sendFunc
	runPhase := func(ph phase, counted bool) phaseResult {
		phaseIdx = len(rep.Phases)
		res := openLoop(ctx, ph, rng, next, send)
		next += ph.Warm + ph.N
		rep.addPhase(res, counted)
		return res
	}

	var (
		mem                          peakRSS
		setups, trainRates, promotes []float64
		lows                         []phaseResult
		steps, promotions            int
	)
	// onePass sets the supervisor up from nothing in a fresh store
	// directory, serves the low rate while Step runs back to back, and
	// verifies every response against the store.
	onePass := func(k int) error {
		dir := filepath.Join(root, fmt.Sprintf("pass%d", k))
		if err := mem.startSetup(); err != nil {
			return err
		}
		t0 := time.Now()
		sup, err := online.New(online.NewSyntheticFeed(false, o.seed), b.onlineConfig(o.seed, dir, eval, nil, nil))
		if err != nil {
			return err
		}
		defer sup.Close()
		setups = append(setups, time.Since(t0).Seconds())
		if err := mem.endSetup(); err != nil {
			return err
		}

		var rec recorder
		send = rec.send(sup.Server(), pool, pick, &phaseIdx)
		if err := mem.startLoad(); err != nil {
			return err
		}
		log, err := b.whileTraining(sup, func() {
			lows = append(lows, runPhase(fixedPhase(fmt.Sprintf("low.%d", k), b.lowRPS, b.lowShare*o.seconds/passes), true))
		})
		if err != nil {
			return err
		}
		if err := mem.endLoad(); err != nil {
			return err
		}
		if len(log.promoteMs) == 0 {
			return fmt.Errorf("pass %d: no promotion while serving", k)
		}
		trainRates = append(trainRates, float64(log.images)/(sum(log.stepMs)/1e3))
		promotes = append(promotes, median(log.promoteMs))
		steps += len(log.stepMs)
		promotions += len(log.promoteMs)

		if k == passes-1 {
			// Training stopped: the ladder measures the shard chain
			// alone, on the last promoted version. Collect the garbage
			// the promotions left first, so the probes do not pay for the
			// training's collections.
			runtime.GC()
			rep.set("max_rps_slo", maxRPSUnderSLO(b.ladder, b.sloMs, runPhase, rep), "rps")
		}
		if err := sup.Close(); err != nil {
			return err
		}
		return rec.verify(dir, spec, pool, rep)
	}
	for k := 0; k < passes; k++ {
		if err := onePass(k); err != nil {
			return err
		}
	}

	rep.set("setup_s", median(setups), "s")
	rep.set("train_img_s", median(trainRates), "img/s")
	rep.set("promote_ms", median(promotes), "ms")
	rep.Notes["setup_s_passes"] = setups
	rep.Notes["steps"] = steps
	rep.Notes["promotions"] = promotions
	mem.report(rep)
	return setLatency(lows, rep)
}

func (b trainServeBench) runTraced(ctx context.Context, o options, rep *report) error {
	zeroPerLayer(rep)
	root, fs, err := storeRoot(o.out)
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	rep.Notes["checkpoint_fs"] = fs
	spec := b.spec()
	eval := dataset.Generate(b.evalImages, dataset.DefaultOptions(false), o.seed+1)
	pool, pick := requestPool(spec, o.seed)
	rng := rand.New(rand.NewSource(o.seed))
	next := 0
	seconds := tracedShare * b.lowShare * o.seconds
	feed := func() online.Feed { return online.NewSyntheticFeed(false, o.seed) }

	// Untraced low phase under training: the tracing-overhead baseline.
	dirA := filepath.Join(root, "untraced")
	supA, err := online.New(feed(), b.onlineConfig(o.seed, dirA, eval, nil, nil))
	if err != nil {
		return err
	}
	defer supA.Close()
	var recA recorder
	phaseA := 0
	lowPh := fixedPhase("low", b.lowRPS, seconds)
	var untraced phaseResult
	if _, err := b.whileTraining(supA, func() {
		untraced = openLoop(ctx, lowPh, rng, next, recA.send(supA.Server(), pool, pick, &phaseA))
	}); err != nil {
		return err
	}
	next += lowPh.Warm + lowPh.N
	rep.addPhase(untraced, true)
	if err := supA.Close(); err != nil {
		return err
	}
	if err := recA.verify(dirA, spec, pool, rep); err != nil {
		return err
	}

	// Traced: the supervisor's rounds, evals and swaps (and the trainer's
	// stage spans) on one recorder, serving at depth 2 on another.
	dirB := filepath.Join(root, "traced")
	reg := telemetry.NewRegistry()
	supRec := flight.New(flight.Config{})
	serveRec := flight.New(flight.Config{Capacity: serveTraceCapacity})
	cfg := b.onlineConfig(o.seed, dirB, eval, reg, supRec)
	cfg.Serve = tracedConfig(cfg.Serve, reg, serveRec)
	supB, err := online.New(feed(), cfg)
	if err != nil {
		return err
	}
	defer supB.Close()
	var recB recorder
	phaseB := 0
	sendB := recB.send(supB.Server(), pool, pick, &phaseB)
	var traced phaseResult
	if _, err := b.whileTraining(supB, func() {
		lowPh.Name = "low-traced"
		phaseB = len(rep.Phases)
		traced = traceServePhase(ctx, lowPh, rng, next, sendB, reg, serveRec, "", rep)
		next += lowPh.Warm + lowPh.N
		rep.addPhase(traced, true)
		highPh := fixedPhase("high-traced", b.highRPS, tracedShare*b.highShare*o.seconds)
		phaseB = len(rep.Phases)
		rep.addPhase(traceServePhase(ctx, highPh, rng, next, sendB, reg, serveRec, ".high", rep), true)
	}); err != nil {
		return err
	}
	if err := supB.Close(); err != nil {
		return err
	}
	if err := recB.verify(dirB, spec, pool, rep); err != nil {
		return err
	}
	rep.layer("trace.overhead_frac", traced.P50Ms/untraced.P50Ms-1)
	rep.layer("gen.late_ms.p99", untraced.LateMs)
	onlineSpans(supRec, rep)
	if s := supB.Snapshots(); s > 0 {
		rep.layer("online.rollback_frac", float64(supB.Rollbacks())/float64(s))
	}
	shards := []float64{}
	for k := 0; k < b.serveConfig().Shards; k++ {
		shards = append(shards, rep.Metrics["shard.util."+strconv.Itoa(k)].Value)
	}
	if m := mean(shards); m > 0 {
		rep.layer("shard.imbalance", maxOf(shards)/m)
	}
	if err := writeTrace(serveRec, rep, ".serve.trace.json"); err != nil {
		return err
	}
	if err := writeTrace(supRec, rep, ".online.trace.json"); err != nil {
		return err
	}

	// Replay each layer directly on a freshly trained Mnist-0.
	acc, trainDur, err := trainMachine(spec, cnnServe.trainImages, o.seed)
	if err != nil {
		return err
	}
	rep.layer("core.train_ms_per_img", ms(trainDur)/float64(cnnServe.trainImages))
	samples := dataset.Generate(poolSize, dataset.DefaultOptions(false), o.seed+7)
	if err := replayCore(acc, samples, rep); err != nil {
		return err
	}
	if err := replayArch(acc, pool, rep); err != nil {
		return err
	}
	if err := replayShard(acc, reg, pool, rep); err != nil {
		return err
	}
	return replayCheckpoint(filepath.Join(root, "replay"), spec, rep)
}

// onlineSpans reads the supervisor's per-step spans: the medians of
// online_round (training), online_eval (rebuild and score the candidate)
// and online_swap (install it in serving).
func onlineSpans(rec *flight.Recorder, rep *report) {
	durs := map[string][]float64{}
	for _, e := range rec.Events() {
		switch e.Name {
		case "online_round", "online_eval", "online_swap":
			durs[e.Name] = append(durs[e.Name], float64(e.Dur())/1e6)
		}
	}
	rep.layer("online.round_ms", median(durs["online_round"]))
	rep.layer("online.eval_ms", median(durs["online_eval"]))
	rep.layer("online.swap_ms", median(durs["online_swap"]))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
