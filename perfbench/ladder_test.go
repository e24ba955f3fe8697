package main

import (
	"testing"
	"time"
)

func TestBisectLadderFindsCapacity(t *testing.T) {
	ladder := []float64{667, 2000, 6000, 18000, 54000}
	for _, tc := range []struct {
		capacity float64
		want     int
	}{
		{500, -1}, {667, 0}, {5000, 1}, {6000, 2}, {17999, 2}, {20000, 3}, {1e6, 4},
	} {
		got, probed := bisectLadder(len(ladder), func(i int) bool { return ladder[i] <= tc.capacity })
		if got != tc.want {
			t.Errorf("capacity %v: rung %d, want %d", tc.capacity, got, tc.want)
		}
		if len(probed) > 3 {
			t.Errorf("capacity %v: %d probes for 5 rungs", tc.capacity, len(probed))
		}
	}
}

// stubPhases serves a known capacity: a probe passes when its rate is at or
// below it, except that the first `spoiled` probes of stallRate miss, as
// when a host stall or slow spell hits them.
type stubPhases struct {
	capacity  float64
	stallRate float64
	spoiled   int
	runs      map[float64]int
}

func (s *stubPhases) run(ph phase, counted bool) phaseResult {
	s.runs[ph.Rate]++
	res := phaseResult{Name: ph.Name, Rate: ph.Rate, Sent: ph.N, Succeeded: ph.N, Valid: true,
		P50Ms: 1, P99Ms: 5, TailP50Ms: 1, MeasuredS: float64(ph.N) / ph.Rate}
	if ph.Rate > s.capacity || (ph.Rate == s.stallRate && s.runs[ph.Rate] <= s.spoiled) {
		res.P99Ms = 10 * ph.AbortMs
	}
	return res
}

func TestMaxRPSUnderSLOFindsStubCapacity(t *testing.T) {
	defer func(p time.Duration) { retryPause = p }(retryPause)
	retryPause = 0
	ladder := []float64{667, 2000, 6000, 18000, 54000}
	for _, tc := range []struct {
		capacity, stallRate float64
		spoiled             int
		want                float64
	}{
		{10000, 0, 0, 6000},
		{10000, 6000, 2, 6000}, // two spoiled probes do not lose the rung
		{10000, 6000, 3, 2000}, // three do
		{1000, 0, 0, 667},
		{100, 0, 0, 0},
	} {
		s := &stubPhases{capacity: tc.capacity, stallRate: tc.stallRate, spoiled: tc.spoiled, runs: map[float64]int{}}
		got := maxRPSUnderSLO(ladder, 25, s.run, newReport("stub", options{}))
		if got != tc.want {
			t.Errorf("%+v: max_rps_slo %v, want %v", tc, got, tc.want)
		}
		if n := s.runs[18000]; tc.want == 6000 && n != probeTries {
			t.Errorf("%+v: %d probes of a failing rung, want %d", tc, n, probeTries)
		}
	}
}
