package main

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pipelayer/internal/serve"
)

// errWrongBits marks a response whose scores differ, in any bit, from the
// serial reference of the weight version it reports.
var errWrongBits = errors.New("response differs from the serial reference of its weight version")

// requestTimeout bounds one request. A healthy server answers in
// milliseconds or sheds at once (ErrOverloaded), so hitting it means a stall.
const requestTimeout = 5 * time.Second

// maxLateMs is the generator-validity limit. A phase is invalid when the
// tail of its send lateness exceeds it and also makes up more than half of
// the request latency at the same quantile: then the generator, not the
// server, is where the tail came from. (When the server saturates both CPUs
// the generator runs late too, but then latency dwarfs the lateness.)
const maxLateMs = 5.0

// sendFunc issues request i and returns nil once the response arrived and
// matched its reference; any error counts the request as failed.
type sendFunc func(ctx context.Context, i int) error

// phase is one open-loop rate: Warm leading requests are sent but discarded,
// then N requests are measured. Arrivals are a Poisson process at Rate.
type phase struct {
	Name string
	Rate float64 // requests per second
	Warm int
	N    int
	// AbortMs, when positive, stops the phase early once it is sure to
	// miss that latency limit (ladder probes; see openLoop).
	AbortMs float64
}

// phaseResult is what one phase measured. Latency is timed from each
// request's scheduled send instant, so a stall (in the server or in the
// generator) also counts against every request scheduled behind it. P50Ms
// and P99Ms are medians over consecutive windows of the phase (see
// windowed).
type phaseResult struct {
	Name      string  `json:"name"`
	Rate      float64 `json:"rate_rps"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Shed      int     `json:"shed"`
	TimedOut  int     `json:"timed_out"`
	WrongBits int     `json:"wrong_bits"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms,omitempty"`
	P99Err    string  `json:"p99_error,omitempty"`
	Windows   int     `json:"windows"`
	LateMs    float64 `json:"gen_late_ms"`
	LateQ     float64 `json:"gen_late_quantile"`
	DrainMs   float64 `json:"drain_ms"`
	TailP50Ms float64 `json:"last_third_p50_ms"`
	WallS     float64 `json:"wall_s"`
	MeasuredS float64 `json:"measured_s"`
	Valid     bool    `json:"valid"`
	Aborted   bool    `json:"aborted,omitempty"`
	Counted   bool    `json:"counted"`

	lat  []float64 // measured successes, ms
	late []float64 // send lateness of the measured requests, ms
}

// schedule draws the phase's arrival offsets from rng: exponential gaps at
// the phase rate, so the same seed yields the same schedule.
func schedule(ph phase, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, ph.Warm+ph.N)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / ph.Rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends the phase's requests on its schedule regardless of how
// many are outstanding — one goroutine per request, as independent users
// would — and waits for all of them. first is the global index of the
// phase's first request, handed to send so callers can key inputs and
// records by it.
//
// When ph.AbortMs is set, the phase stops sending as soon as a measured
// request fails, or when more requests are in flight than eight times what
// the rate and AbortMs allow (a backlog no transient stall builds): the
// probe can no longer pass, so the rest of the schedule would only spend
// time.
func openLoop(ctx context.Context, ph phase, rng *rand.Rand, first int, send sendFunc) phaseResult {
	sched := schedule(ph, rng)
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	errs := make([]error, len(sched))
	maxInFlight := int64(max(100, 8*ph.Rate*ph.AbortMs/1000))
	var failed, inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	total := 0
	for i, at := range sched {
		if ph.AbortMs > 0 && (failed.Load() > 0 || inFlight.Load() > maxInFlight) {
			break
		}
		if d := at - time.Since(start); d > 0 {
			sleepPrecise(d)
		}
		late[i] = ms(time.Since(start) - at)
		total++
		wg.Add(1)
		inFlight.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			defer inFlight.Add(-1)
			rctx, cancel := context.WithTimeout(ctx, requestTimeout)
			errs[i] = send(rctx, first+i)
			cancel()
			lat[i] = ms(time.Since(start) - at)
			if i >= ph.Warm && errs[i] != nil {
				failed.Add(1)
			}
		}(i, at)
	}
	lastSend := time.Since(start)
	wg.Wait()
	wall := time.Since(start)

	res := phaseResult{
		Name: ph.Name, Rate: ph.Rate, Aborted: total < len(sched),
		DrainMs: ms(wall - lastSend), WallS: wall.Seconds(),
	}
	if ph.Warm < total {
		res.MeasuredS = (wall - sched[ph.Warm]).Seconds()
	}
	for i := 0; i < total; i++ {
		err := errs[i]
		if i < ph.Warm {
			// Warm-up is discarded, but a wrong bit anywhere breaks the
			// output check.
			if errors.Is(err, errWrongBits) {
				res.WrongBits++
			}
			continue
		}
		res.Sent++
		switch {
		case err == nil:
			res.Succeeded++
			res.lat = append(res.lat, lat[i])
		case errors.Is(err, errWrongBits):
			res.WrongBits++
		case errors.Is(err, serve.ErrOverloaded):
			res.Shed++
		case errors.Is(err, context.DeadlineExceeded):
			res.TimedOut++
		}
	}
	res.Failed = res.Sent - res.Succeeded
	if res.Sent == 0 {
		return res
	}
	var err error
	res.P50Ms, res.P99Ms, res.Windows, err = windowed(res.lat)
	if err != nil {
		res.P99Err = err.Error()
	}
	// The median latency of the last third of the schedule tells a backlog
	// that kept growing (it is large) from a transient stall (it is not).
	res.TailP50Ms = median(lat[total-(total-ph.Warm+2)/3 : total])
	res.late = late[ph.Warm:total]
	res.LateQ, res.LateMs = tail(res.late)
	latQ, _ := percentile(res.lat, res.LateQ)
	res.Valid = res.LateMs <= maxLateMs || res.LateMs <= latQ/2
	return res
}

// sleepPrecise blocks the calling thread for d. The runtime's timers wake
// on a millisecond grid when the process is idle, which would make every
// sub-millisecond gap of a fast schedule up to a millisecond late; a
// nanosleep system call wakes within tens of microseconds.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
