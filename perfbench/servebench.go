package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pipelayer/internal/core"
	"pipelayer/internal/energy"
	"pipelayer/internal/networks"
	"pipelayer/internal/serve"
)

// serveBench is an unsharded serving workload: a network trained at set-up
// and served by 2 whole-model replicas with the default MaxBatch/MaxWait,
// loaded open-loop at a low and a high fixed rate, then searched up a fixed
// rate ladder for the highest rate that meets the p99 limit.
type serveBench struct {
	name        string
	spec        func() networks.Spec
	trainImages int
	lowRPS      float64
	highRPS     float64
	lowShare    float64 // share of --seconds spent at the low rate
	highShare   float64 // share of --seconds spent at the high rate
	ladder      []float64
	sloMs       float64
}

var mlpServe = serveBench{
	name:        "mlp-serve",
	spec:        networks.MnistA,
	trainImages: 640,
	lowRPS:      1000,
	highRPS:     3000,
	lowShare:    0.25,
	highShare:   0.10,
	ladder:      []float64{600, 1800, 5400, 16200, 48600},
	sloMs:       50,
}

var cnnServe = serveBench{
	name:        "cnn-serve",
	spec:        networks.Mnist0,
	trainImages: 16,
	lowRPS:      50,
	highRPS:     150,
	lowShare:    0.40,
	highShare:   0.05,
	ladder:      []float64{57, 170, 510, 1530},
	sloMs:       100,
}

// warmup is the discarded lead-in of every phase.
const warmup = 500 * time.Millisecond

// fixedPhase is a fixed-rate phase measuring rate×seconds requests after
// the warm-up.
func fixedPhase(name string, rate, seconds float64) phase {
	return phase{Name: name, Rate: rate, Warm: int(rate * warmup.Seconds()), N: int(rate * seconds)}
}

// setup trains the machine and starts the server once, timing it.
func (b serveBench) setup(seed int64, cfg serve.Config) (*core.Accelerator, *serve.Server, time.Duration, time.Duration, error) {
	t0 := time.Now()
	acc, trainDur, err := trainMachine(b.spec(), b.trainImages, seed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	cfg.Replicas = replicas
	srv, err := serve.New(acc, cfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return acc, srv, time.Since(t0), trainDur, nil
}

func (b serveBench) run(ctx context.Context, o options, rep *report) error {
	if o.trace {
		return b.runTraced(ctx, o, rep)
	}
	pool, pick := requestPool(b.spec(), o.seed)
	rng := rand.New(rand.NewSource(o.seed))
	next := 0
	var send sendFunc
	runPhase := func(ph phase, counted bool) phaseResult {
		res := openLoop(ctx, ph, rng, next, send)
		next += ph.Warm + ph.N
		rep.addPhase(res, counted)
		return res
	}

	var (
		mem                peakRSS
		setups, rates      []float64
		promotes           []float64
		lows, highs        []phaseResult
		acc                *core.Accelerator
		srv                *serve.Server
		setupDur, trainDur time.Duration
		err                error
	)
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	for k := 0; k < passes; k++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				return err
			}
		}
		// Start every set-up as the first one in a fresh process does:
		// drop the previous pass's machine and server, or they and their
		// garbage land in this set-up's time and peak.
		acc, srv, send = nil, nil, nil
		if err := mem.startSetup(); err != nil {
			return err
		}
		if acc, srv, setupDur, trainDur, err = b.setup(o.seed, serveConfig()); err != nil {
			return err
		}
		if err := mem.endSetup(); err != nil {
			return err
		}
		setups = append(setups, setupDur.Seconds())
		rates = append(rates, float64(b.trainImages)/trainDur.Seconds())
		ref, err := referenceFor(acc, pool)
		if err != nil {
			return err
		}
		send = verifiedSend(srv, pool, pick, ref)
		if err := mem.startLoad(); err != nil {
			return err
		}
		lows = append(lows, runPhase(fixedPhase(fmt.Sprintf("low.%d", k), b.lowRPS, b.lowShare*o.seconds/passes), true))
		highs = append(highs, runPhase(fixedPhase(fmt.Sprintf("high.%d", k), b.highRPS, b.highShare*o.seconds/passes), true))
		if err := mem.endLoad(); err != nil {
			return err
		}
		if k == passes-1 {
			// The ladder serves the initial weights too, so it comes
			// before this pass's swaps.
			rep.set("max_rps_slo", maxRPSUnderSLO(b.ladder, b.sloMs, runPhase, rep), "rps")
		}
		promoteMs, err := b.promote(acc, srv)
		if err != nil {
			return err
		}
		promotes = append(promotes, promoteMs)
	}
	rep.set("setup_s", median(setups), "s")
	rep.set("train_img_s", median(rates), "img/s")
	rep.set("promote_ms", median(promotes), "ms")
	rep.Notes["setup_s_passes"] = setups
	mem.report(rep)
	if err := setLatency(lows, rep); err != nil {
		return err
	}
	rep.setUngated("p50_ms.high", medianP50(highs), "ms")
	return nil
}

// setLatency records the latency figures of the passes' low-rate phases:
// p50_ms.low as the median over passes of each phase's p50, and the
// ungated p99_ms.low and gen.late_ms.p99 from all their requests pooled,
// since a tail needs more samples than one pass holds.
func setLatency(lows []phaseResult, rep *report) error {
	var lat, late []float64
	for _, r := range lows {
		lat = append(lat, r.lat...)
		late = append(late, r.late...)
	}
	_, p99, _, err := windowed(lat)
	if err != nil {
		return fmt.Errorf("low phases: %w", err)
	}
	_, lateMs := tail(late)
	rep.set("p50_ms.low", medianP50(lows), "ms")
	rep.setUngated("p99_ms.low", p99, "ms")
	rep.setUngated("gen.late_ms.p99", lateMs, "ms")
	return nil
}

// medianP50 is the median over phases of each phase's p50.
func medianP50(rs []phaseResult) float64 {
	p50s := make([]float64, len(rs))
	for i, r := range rs {
		p50s[i] = r.P50Ms
	}
	return median(p50s)
}

// probeSeconds is the measured length of one ladder probe (at least
// 1000 requests, so its p99 has ten samples beyond it).
const probeSeconds = 2.0

// probeTries is how many probes a rung gets before it fails, and
// retryPause the wait before each retry. The reference host slows by up to
// 40% for 10–20 s at a time, enough to move the knee below the rung the
// ladder normally passes; spacing the tries over about 10 s lets a rung
// fail only on a shortfall that outlasts such a spell.
const probeTries = 3

var retryPause = 3 * time.Second

// maxRPSUnderSLO bisects the frozen ladder for the highest rung that meets
// the p99 limit and returns the throughput that rung sustained: requests
// completed per second of probe wall time (first scheduled send to last
// completion). A rung passes when any of its probeTries probes meets the
// limit. It returns 0 when even the lowest rung fails.
func maxRPSUnderSLO(ladder []float64, sloMs float64, runPhase func(phase, bool) phaseResult, rep *report) float64 {
	passed := map[int]phaseResult{}
	best, probed := bisectLadder(len(ladder), func(i int) bool {
		rate := ladder[i]
		ph := phase{
			Name: fmt.Sprintf("ladder@%g", rate), Rate: rate,
			Warm: int(rate * warmup.Seconds() / 2), N: max(1000, int(rate*probeSeconds)),
			AbortMs: sloMs,
		}
		for try := 0; try < probeTries; try++ {
			if try > 0 {
				time.Sleep(retryPause)
			}
			if res := runPhase(ph, false); meetsSLO(res, sloMs) {
				passed[i] = res
				return true
			}
		}
		return false
	})
	rep.Notes["ladder"] = ladder
	rep.Notes["ladder_probed"] = probed
	rep.Notes["slo_p99_ms"] = sloMs
	if best < 0 {
		return 0
	}
	rep.Notes["ladder_rung"] = ladder[best]
	r := passed[best]
	return float64(r.Succeeded) / r.MeasuredS
}

// promoteRepeats and promoteBudget bound the hot swaps a pass of a serve
// workload times for promote_ms: at least promoteRepeats, and more until
// promoteBudget has passed.
const (
	promoteRepeats = 5
	promoteBudget  = 200 * time.Millisecond
)

// promote times promoting the served weights as a new version with no
// trainer in the loop: export the weights, rebuild a serving machine from
// the snapshot, build its replica set and swap it in. It returns the
// median over the swaps. The swaps follow the pass's load phases, so no
// response is served by the promoted versions.
func (b serveBench) promote(acc *core.Accelerator, srv *serve.Server) (float64, error) {
	spec := acc.Spec()
	net := networks.BuildTrainable(spec, rand.New(rand.NewSource(0)))
	var times []float64
	begin := time.Now()
	for k := 0; k < promoteRepeats || time.Since(begin) < promoteBudget; k++ {
		t0 := time.Now()
		if err := acc.ExportWeights(net); err != nil {
			return 0, err
		}
		m, err := core.NewFromSnapshot(energy.DefaultModel(), spec, 1, net)
		if err != nil {
			return 0, err
		}
		set, err := m.ReplicaSet(replicas)
		if err != nil {
			return 0, err
		}
		if err := srv.Swap(set, uint64(k+2)); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// queueCap is the intake queue bound on every workload. The default of 64
// sheds whenever the host stalls the process for 64 arrivals — 10 ms at
// 6000 rps, and this 2-vCPU host stalls that long several times a minute —
// so shedding would measure the host's worst stall rather than the server.
// 1024 turns such stalls into latency, which p99 then reports.
const queueCap = 1024

// serveConfig is the untraced serving configuration: the default MaxBatch
// and MaxWait, with the benchmark's queue bound.
func serveConfig() serve.Config { return serve.Config{QueueCap: queueCap} }
