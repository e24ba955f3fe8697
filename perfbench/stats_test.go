package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesShortTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: must refuse
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "beyond") {
				t.Errorf("p%g of %d samples = %v, %v; want a refusal", tc.q*100, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
}

func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	lat := make([]float64, 5*window)
	for i := range lat {
		lat[i] = 1 + float64(i%100)/100 // 1.00 … 1.99 ms in every window
	}
	// A stall spoils a tenth of the third window.
	for i := 2*window + 100; i < 2*window+200; i++ {
		lat[i] = 80
	}
	p50, p99, n, err := windowed(lat)
	if err != nil || n != 5 {
		t.Fatalf("windowed: n=%d err=%v", n, err)
	}
	if p99 >= 2 || p50 >= 2 {
		t.Errorf("p50=%v p99=%v; one stalled window moved the median over windows", p50, p99)
	}
	if whole, _ := percentile(lat, 0.99); whole != 80 {
		t.Fatalf("test setup: whole-phase p99 = %v, want the stall", whole)
	}
}

func TestWindowedShortPhaseIsOneWindow(t *testing.T) {
	if _, _, n, err := windowed(seq(1500)); n != 1 || err != nil {
		t.Errorf("1500 samples: %d windows, err %v; want one window", n, err)
	}
	if _, _, _, err := windowed(seq(500)); err == nil {
		t.Error("500 samples: p99 should be refused")
	}
}
