package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSlowdown(t *testing.T) {
	if got := slowdown(18*time.Millisecond, 22*time.Millisecond); got != 1 {
		t.Fatalf("kernel at 20 ms on average: slowdown %v, want 1", got)
	}
	if got := slowdown(30*time.Millisecond, 30*time.Millisecond); got != 1.5 {
		t.Fatalf("kernel at 30 ms: slowdown %v, want 1.5", got)
	}
}

func TestRefKernelRecordsItsTime(t *testing.T) {
	n := len(refTimes)
	d := refKernel()
	if d <= 0 {
		t.Fatalf("kernel took %v of thread CPU time", d)
	}
	if len(refTimes) != n+1 || refTimes[n] != float64(d.Nanoseconds())/1e6 {
		t.Fatalf("kernel time %v not recorded: %v", d, refTimes[n:])
	}
}

func TestPeakRSSCoversOnlyWhatFollowsTheReset(t *testing.T) {
	if err := resetPeakRSS(true); err != nil {
		t.Skipf("cannot reset the peak RSS count here: %v", err)
	}
	base := peakRSSMB()
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	grown := peakRSSMB()
	if grown-base < 24 {
		t.Fatalf("peak grew %.1f MB after touching 32 MB", grown-base)
	}
	buf = nil
	if err := resetPeakRSS(true); err != nil {
		t.Fatal(err)
	}
	if after := peakRSSMB(); after > grown-16 {
		t.Fatalf("peak after reset %.1f MB, before %.1f MB: the 32 MB buffer is still counted", after, grown)
	}
}

func TestCheckManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	manifest := `{"end_to_end": [{"name": "setup_s", "unit": "s"}, {"name": "iteration_ms", "unit": "ms"}],
		"per_layer": [{"name": "interp.insts", "unit": "count"}]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	both := map[string]metric{"setup_s": {1, "s"}, "iteration_ms": {2, "ms"}}
	if err := checkManifest(path, false, both); err != nil {
		t.Fatalf("every declared metric present: %v", err)
	}
	if err := checkManifest(path, true, map[string]metric{"interp.insts": {3, "count"}}); err != nil {
		t.Fatalf("traced run with its per-layer metric: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"setup_s": {1, "s"}},
		"undeclared": {"setup_s": {1, "s"}, "iteration_ms": {2, "ms"}, "extra": {3, "ms"}},
		"unit":       {"setup_s": {1, "s"}, "iteration_ms": {2, "s"}},
	} {
		if err := checkManifest(path, false, got); err == nil {
			t.Errorf("%s: result accepted", name)
		}
	}
	if err := checkManifest(path, true, both); err == nil {
		t.Error("traced run with end-to-end metrics accepted")
	}
}
