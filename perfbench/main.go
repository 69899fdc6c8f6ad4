// Command perfbench is the repository benchmark. It runs one of three
// workloads for a fixed host-time window, checks the program's outputs,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the named
// workload (host time, measured with no spans recorded). With --trace 1
// it carries the per-layer ledger instead, which is the same for every
// workload: each of the three workloads is run untraced and with spans,
// then nested lanes time each layer from outside. Spans are written to
// .bench_build/perfbench/ at exit. Both modes print exactly the metrics
// BENCHMARK.json lists for them. See README.md beside this file for the
// metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload hands back to main.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// failf records a failed output check: the run is not correct and the
// failure is counted against the attempts.
func (r *result) failf(format string, args ...any) { r.failN(1, format, args...) }

// failN is failf for a check covering n operations.
func (r *result) failN(n int64, format string, args ...any) {
	r.Correct = false
	r.Failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// runCtx is what every workload receives.
type runCtx struct {
	seed    int64
	window  time.Duration // measured host time
	rec     *Recorder     // non-nil only in the traced run
	workDir string        // scratch directory inside the checkout
}

// workloads are the untraced runs, each printing the end-to-end metrics
// of its own work.
var workloads = map[string]func(rc *runCtx) (*result, error){
	"figures": runFigures,
	"replay":  runReplay,
	"serve":   runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figures, replay or serve")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured host seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer ledger")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	workDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	host := hostFacts(*seed)
	rc := &runCtx{seed: *seed, window: time.Duration(*seconds) * time.Second, workDir: workDir}
	if *trace == 1 {
		rc.rec = NewRecorder()
		run = runLedger
	}
	res, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if *trace == 1 {
		spans := rc.rec.Spans()
		fmt.Fprint(os.Stderr, formatSelfTimes(SelfTimes(spans)))
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := rc.rec.WriteJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			os.Exit(1)
		}
	}
	if err := checkManifest("BENCHMARK.json", *trace == 1, res.Metrics); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	host["loadavg_after"] = loadAvg()
	if len(refTimes) > 0 {
		host["ref_kernel_ms_median"] = Median(refTimes)
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runLedger is the traced run: the ledger parts of all three workloads,
// each given a third of the window, so that every traced run prints every
// per-layer row whichever workload it names.
func runLedger(rc *runCtx) (*result, error) {
	res := &result{Correct: true}
	part := *rc
	part.window = rc.window / 3
	for _, ledger := range []func(*runCtx, *result) error{figuresLedger, replayLedger, serveLedger} {
		if err := ledger(&part, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// manifestMetric is one metric as BENCHMARK.json declares it.
type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkManifest compares the metrics of a result with the ones
// BENCHMARK.json declares for the mode: end_to_end untraced, per_layer
// traced. Every declared metric must be present in its unit, and no other.
func checkManifest(path string, traced bool, got map[string]metric) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		EndToEnd []manifestMetric `json:"end_to_end"`
		PerLayer []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want, key := m.EndToEnd, "end_to_end"
	if traced {
		want, key = m.PerLayer, "per_layer"
	}
	var problems []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		switch g, ok := got[w.Name]; {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case g.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared in %s", w.Name, g.Unit, w.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result does not match %s %s: %s", path, key, strings.Join(problems, "; "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostFacts describes the machine the numbers were taken on.
func hostFacts(seed int64) map[string]any {
	return map[string]any{
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"loadavg_before": loadAvg(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the
// current resident size, so that peakRSSMB covers only what follows. With
// free, the garbage collected so far is first returned to the OS: the
// benchmark does that once after set-up, and restarts the count without
// it before every iteration of the timed part.
func resetPeakRSS(free bool) error {
	if free {
		debug.FreeOSMemory()
	}
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM, which Linux reports in kB).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTime is the CPU time (user + system, all threads) the process has
// used. Throughput metrics divide by it rather than by wall time: on a
// shared virtual host the hypervisor steals the vCPU for seconds at a
// time, which moved wall-time throughput of one Figure-2 sweep by ±14%
// between iterations against ±8% in CPU time. The timed sweeps run on one
// worker, so CPU time is wall time whenever nothing is stolen, plus the
// garbage collector's work on the other core.
func cpuTime() time.Duration { return clockTime(clockProcessCPU) }

// The CPU-time clocks of clock_gettime. They count in nanoseconds; the
// user and system times of getrusage advance in scheduler ticks on some
// kernels (4 ms steps were seen), which made a 20 ms kernel read 16, 20
// or 24 ms.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockTime(id int) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// Host speed. On a shared 2-core virtual host the same code ran up to 20%
// slower or faster from one minute to the next, and from one run to the
// next, because of other tenants; steal time stayed under 1%. So every
// end-to-end time is scaled to a nominal host: next to the timed work and
// each set-up the benchmark runs refKernel, a fixed loop of its own code,
// and multiplies a throughput by (kernel time / refNominal), or divides a
// time by it. On seven replay runs this cut the spread of the replay
// sweep throughput from 0.156 to 0.042 of the median. The kernel calls no
// program code and is timed in its own thread's CPU time, so a program
// change moves the scaled metrics as it moves the raw ones, and the
// program's other threads cannot slow the kernel's clock.
const refNominal = 20 * time.Millisecond

// refArr is the kernel's working set: 1 MB, cache-resident like the
// simulator's hot tables.
var refArr [1 << 18]uint32

// refTimes keeps every kernel time of the run, in ms, for the host facts.
var refTimes []float64

// refKernel runs the fixed reference loop (data-dependent branches and
// loads over refArr, no allocation) and returns its thread CPU time.
func refKernel() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := clockTime(clockThreadCPU)
	x, sum := uint32(2463534242), uint32(0)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & uint32(len(refArr)-1)
		if refArr[j]&1 == 0 {
			refArr[j] += x
		} else {
			sum += refArr[j]
		}
	}
	refArr[0] += sum
	d := clockTime(clockThreadCPU) - t
	refTimes = append(refTimes, float64(d.Nanoseconds())/1e6)
	return d
}

// slowdown is how much slower than nominal the host ran between two
// kernel runs.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(refNominal)
}

// timeRepeated runs fn until window has elapsed (at least once) and
// returns each call's duration. Throughput metrics are medians over these
// iterations, so one burst of host noise moves one sample, not the run.
func timeRepeated(window time.Duration, fn func(iter int) error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t))
	}
	return ds, nil
}

// medianSetup runs setup n times and returns the median of its wall
// times, each scaled to the nominal host by the reference kernel run
// around it, in seconds, and the last run's state; discard, when non-nil,
// releases each earlier state.
func medianSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var (
		last T
		ds   []float64
	)
	ref := refKernel()
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(t)
		next := refKernel()
		ds = append(ds, d.Seconds()/slowdown(ref, next))
		ref, last = next, v
	}
	return last, Median(ds), nil
}

// medianCall calls fn on every input, in turns, for about d in total,
// and returns the median duration of one call in ns.
func medianCall[T any](rec *Recorder, name string, d time.Duration, inputs []T, fn func(T) error) (float64, error) {
	calls := make([]namedCall, len(inputs))
	for i, in := range inputs {
		calls[i] = namedCall{name, func() error { return fn(in) }}
	}
	ns, err := medianCalls(rec, d, calls)
	return ns[name], err
}

// namedCall is one call timed by medianCalls under a span named name.
type namedCall struct {
	name string
	fn   func() error
}

// medianCalls makes the calls in turn, round after round, for about d in
// total, under one lane span with a span around each call, and returns
// the median span duration per call name in ns. Taking turns puts a
// change in host speed on every name alike.
func medianCalls(rec *Recorder, d time.Duration, calls []namedCall) (map[string]float64, error) {
	top := rec.Begin("lane", 0, 0)
	defer rec.Finish(top)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		for _, c := range calls {
			id := rec.Begin(c.name, top, 0)
			err := c.fn()
			rec.Finish(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
	}
	ns := map[string][]float64{}
	for _, s := range rec.Children(top) {
		ns[s.Name] = append(ns[s.Name], float64(s.End-s.Start))
	}
	out := map[string]float64{}
	for name, v := range ns {
		out[name] = Median(v)
	}
	return out, nil
}
