package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile. A p99 drawn from 200 samples is the second-largest value, and
// two such runs disagree wildly; with at least ten samples beyond it the
// estimate is a property of the distribution rather than of one outlier.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses — with an error naming the shortfall — when fewer than minBeyond
// samples lie beyond the rank, so a tail figure is never read off too short a
// run. xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d): run more requests", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (mean of the middle two when even),
// or 0 for an empty slice. Used for small repeated measurements — set-up
// repeats, replay timings — where the tail rule of percentile does not
// apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the highest of p99, p90 and p50 that xs has enough samples
// for, with the quantile it used: generator lateness is always reported, and
// short phases still get the best tail they support.
func tail(xs []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.9, 0.5} {
		if v, err := percentile(xs, q); err == nil {
			return q, v
		}
	}
	return 0, 0
}

// window is the number of consecutive requests one latency window holds:
// enough for a p99 with minBeyond samples beyond it.
const window = 100 * minBeyond

// windowed splits latencies (in schedule order) into consecutive windows of
// `window` requests — the remainder joins the last — and returns the median
// over windows of each window's p50 and p99. This host stalls a process for
// tens of milliseconds a few times a minute; such a stall spoils the tail
// of the window it lands in, and the median over windows reports the
// typical window rather than how many stalls a run happened to catch.
// Phases with fewer than three windows are treated as one window; the p99
// error is set when even that is too short.
func windowed(lat []float64) (p50, p99 float64, windows int, err error) {
	n := len(lat) / window
	if n < 3 {
		p99, err = percentile(lat, 0.99)
		return median(lat), p99, 1, err
	}
	var p50s, p99s []float64
	for w := 0; w < n; w++ {
		hi := (w + 1) * window
		if w == n-1 {
			hi = len(lat)
		}
		part := lat[w*window : hi]
		p, err := percentile(part, 0.99)
		if err != nil {
			return 0, 0, n, err
		}
		p50s = append(p50s, median(part))
		p99s = append(p99s, p)
	}
	return median(p50s), median(p99s), n, nil
}
