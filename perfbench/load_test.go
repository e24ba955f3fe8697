package main

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pipelayer/internal/serve"
)

// TestOpenLoopStallInflatesLaterRequests drives a stub server with one
// worker that stalls once for 100 ms. An open-loop generator keeps sending
// on schedule, so the requests scheduled during the stall queue behind it
// and their latency — timed from the scheduled send — includes the wait.
// The generator itself stays on time, and the phase stays valid: the tail
// came from the server.
func TestOpenLoopStallInflatesLaterRequests(t *testing.T) {
	const (
		stallAt = 300
		stall   = 100 * time.Millisecond
		rate    = 1000.0
	)
	var worker sync.Mutex
	send := func(ctx context.Context, i int) error {
		worker.Lock()
		defer worker.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	}
	ph := phase{Name: "stub", Rate: rate, Warm: 0, N: 2000}
	res := openLoop(context.Background(), ph, rand.New(rand.NewSource(1)), 0, send)
	if res.Sent != ph.N || res.Failed != 0 {
		t.Fatalf("sent %d failed %d", res.Sent, res.Failed)
	}
	// About rate×stall = 100 requests arrive during the stall; those in
	// its first half wait more than 50 ms.
	late := 0
	for _, l := range res.lat {
		if l > 50 {
			late++
		}
	}
	if late < 25 {
		t.Errorf("%d requests over 50 ms; the stall did not reach the requests scheduled behind it", late)
	}
	if res.LateMs > 20 {
		t.Errorf("generator ran %.1f ms late: it waited for the stalled server instead of keeping its schedule", res.LateMs)
	}
	if !res.Valid {
		t.Error("phase marked invalid although the generator kept its schedule")
	}
	// The measured requests took longer than the stall-free ones would.
	if res.P50Ms > 5 {
		t.Errorf("p50 %.2f ms: the stall should only move the tail", res.P50Ms)
	}
}

// TestOpenLoopAbortsHopelessProbe checks the early stop: a server whose
// backlog keeps growing, or that sheds, ends the phase long before its
// schedule would.
func TestOpenLoopAbortsHopelessProbe(t *testing.T) {
	var worker sync.Mutex
	backlogged := func(ctx context.Context, i int) error { // serves 500 of 1000 rps
		worker.Lock()
		defer worker.Unlock()
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	shedding := func(ctx context.Context, i int) error {
		if i > 200 {
			return serve.ErrOverloaded
		}
		return nil
	}
	for name, send := range map[string]sendFunc{"backlog": backlogged, "shed": shedding} {
		ph := phase{Name: name, Rate: 1000, N: 3000, AbortMs: 10}
		start := time.Now()
		res := openLoop(context.Background(), ph, rand.New(rand.NewSource(1)), 0, send)
		if !res.Aborted || res.Sent >= ph.N {
			t.Fatalf("%s: aborted=%v sent=%d; want an early stop", name, res.Aborted, res.Sent)
		}
		if d := time.Since(start); d > 1500*time.Millisecond {
			t.Errorf("%s: took %v; the 3 s schedule should have stopped early", name, d)
		}
		if meetsSLO(res, ph.AbortMs) {
			t.Errorf("%s: an aborted probe met the SLO", name)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	ph := phase{Rate: 500, N: 100}
	a := schedule(ph, rand.New(rand.NewSource(7)))
	b := schedule(ph, rand.New(rand.NewSource(7)))
	c := schedule(ph, rand.New(rand.NewSource(8)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
	}
	if a[len(a)-1] == c[len(c)-1] {
		t.Error("different seeds, same schedule")
	}
}
