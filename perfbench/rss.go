package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// peakRSS tracks the process's peak resident set size per stage of a run:
// the kernel's high-water mark is reset before each pass's set-up and
// before its load, so each gets a peak of its own.
//
// rss_mb is the median load peak: the footprint of serving the workload,
// with the trained machine (and, for cnn-train-serve, the trainer) alive.
// Set-up's own peak is kept in the report but not gated: it is set by when
// the collector's cycles fall against training's allocation bursts, and
// the same Mnist-A set-up peaked anywhere from 21 to 33 MB.
type peakRSS struct {
	setups []float64
	loads  []float64
}

// startSetup returns memory the previous passes left to the OS and resets
// the high-water mark, so the next set-up starts as in a fresh process.
func (p *peakRSS) startSetup() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// endSetup records the set-up's peak.
func (p *peakRSS) endSetup() error {
	mb, err := peakRSSMB()
	p.setups = append(p.setups, mb)
	return err
}

// startLoad returns the set-up's garbage to the OS and resets the
// high-water mark before a pass's load phases, so their peak is serving's
// own.
func (p *peakRSS) startLoad() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// endLoad records the peak of the load phases since startLoad. Workloads
// call it after their fixed-rate phases and before the ladder: an overload
// probe piles up request goroutines until it aborts, and how many depends
// on when it does.
func (p *peakRSS) endLoad() error {
	mb, err := peakRSSMB()
	p.loads = append(p.loads, mb)
	return err
}

// report records rss_mb, the median load peak.
func (p *peakRSS) report(rep *report) {
	rep.set("rss_mb", median(p.loads), "MB")
	rep.Notes["rss_mb_setups"] = p.setups
	rep.Notes["rss_mb_loads"] = p.loads
}

// resetPeakRSS sets VmHWM back to the current RSS (Linux clear_refs 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads this process's peak resident set size (VmHWM) in MiB.
// Each run is a fresh process, so this is the workload's own peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
