package main

// bisectLadder finds the highest rung of a fixed ascending rate ladder that
// passes, assuming passing is monotone (a rung passes only if every lower
// one would). It probes O(log len) rungs and returns the index of the
// highest passing rung, or -1 when even the lowest fails, with the indices
// it probed in order.
func bisectLadder(rungs int, pass func(i int) bool) (best int, probed []int) {
	lo, hi := -1, rungs // lo passes (sentinel), hi fails (sentinel)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		probed = append(probed, mid)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}

// meetsSLO is the ladder's pass rule for one probe: nothing failed, p99 is
// measurable and within the limit, and completions kept up with arrivals —
// the median latency of the last third of the schedule is within the limit
// too, which a growing backlog breaks and a transient stall does not.
func meetsSLO(r phaseResult, limitMs float64) bool {
	return r.Failed == 0 && r.P99Err == "" && r.P99Ms <= limitMs && r.TailP50Ms <= limitMs
}
