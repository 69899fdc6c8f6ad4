package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/stats"
	"informing/internal/trace"
	"informing/internal/workload"
)

// The replay workload runs the memory hierarchy alone: recorded traces
// are parsed with trace.Load and replayed through every trace geometry
// under every replacement policy, with no interpreter and no timing core.
// It is the only workload on which trace parsing and the policy seam run.
//
// Every run records the same traces: each of replayBenches on both timing
// cores. The seed only orders them. Replay speed per reference depends on
// the benchmark and on the recording core's cache geometry, so a seed that
// picked benchmarks or cores made the metrics depend on the seed (one seed
// ran 22% below the median of ten others).
var replayBenches = []string{"espresso", "ear"}

// replayTrace is one recorded trace and the run that produced it.
type replayTrace struct {
	name  string // benchmark/core
	jsonl []byte
	run   stats.Run
	hier  mem.HierConfig
}

func recordTraces(seed int64) ([]replayTrace, error) {
	var out []replayTrace
	for _, name := range replayBenches {
		bm, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
		if err != nil {
			return nil, err
		}
		for _, machine := range []core.Machine{core.OutOfOrder, core.InOrder} {
			cfg := experiments.ConfigFor(machine, core.Off).WithMaxInsts(figMaxInsts)
			var buf bytes.Buffer
			sink := obs.NewJSONL(&buf, 1)
			run, err := cfg.WithTrace(sink.Emit).Run(prog)
			if err != nil {
				return nil, fmt.Errorf("record %s: %w", name, err)
			}
			if err := sink.Close(); err != nil {
				return nil, fmt.Errorf("record %s: %w", name, err)
			}
			out = append(out, replayTrace{name: name + "/" + layerName[machine], jsonl: bytes.Clone(buf.Bytes()), run: run, hier: cfg.HierConfig()})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// sweepSpecs is the 5 trace geometries × 4 replacement policies grid
// around a trace's recording geometry; the first spec is the recording
// geometry under LRU.
func sweepSpecs(base mem.HierConfig) []experiments.GeometrySpec {
	var out []experiments.GeometrySpec
	for _, pol := range mem.PolicyNames() {
		for _, g := range experiments.TraceGeometries(base) {
			g.Label += "/" + pol
			if pol != mem.PolicyLRU {
				g.Hier.L1.Policy, g.Hier.L2.Policy = pol, pol
			}
			out = append(out, g)
		}
	}
	return out
}

// replayIter is one load-and-sweep pass over every trace.
type replayIter struct {
	load, sweep time.Duration // CPU time
	bytes, refs uint64        // JSONL bytes parsed; references replayed
}

func runReplayIteration(rc *runCtx, res *result, traces []replayTrace, parent int) (replayIter, error) {
	var it replayIter
	runtime.GC() // each iteration starts from a collected heap, not the last one's garbage
	for _, tr := range traces {
		id := rc.rec.Begin("trace.Load", parent, 0)
		t := cpuTime()
		d, err := trace.Load(bytes.NewReader(tr.jsonl), trace.ReaderConfig{})
		it.load += cpuTime() - t
		rc.rec.Finish(id)
		if err != nil {
			return it, fmt.Errorf("load %s: %w", tr.name, err)
		}
		it.bytes += uint64(len(tr.jsonl))

		specs := sweepSpecs(tr.hier)
		id = rc.rec.Begin("experiments.TraceSweep", parent, 0)
		t = cpuTime()
		rs, err := experiments.TraceSweep(d, specs, experiments.Options{Workers: simWorkers})
		it.sweep += cpuTime() - t
		rc.rec.Finish(id)
		if err != nil {
			return it, fmt.Errorf("sweep %s: %w", tr.name, err)
		}
		it.refs += uint64(len(d.Refs)) * uint64(len(specs))

		res.Attempted++
		if err := rs[0].Replay.Reconcile(tr.run); err != nil {
			res.failf("%s: %v", tr.name, err)
		}
		want := expectSweepDigest[tr.name]
		if got := digest(experiments.FormatTraceSweep(tr.name, rs)); got != want {
			res.failf("%s: sweep digest %s, want %s", tr.name, got, want)
		}
	}
	return it, nil
}

func runReplay(rc *runCtx) (*result, error) {
	res := &result{Correct: true}
	traces, setup, err := medianSetup(5, func() ([]replayTrace, error) { return recordTraces(rc.seed) }, nil)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(true); err != nil {
		return nil, err
	}
	var iters, peaks []float64
	_, err = timeRepeated(rc.window, func(int) error {
		if err := resetPeakRSS(false); err != nil {
			return err
		}
		r0 := refKernel()
		it, err := runReplayIteration(rc, res, traces, 0)
		slow := slowdown(r0, refKernel())
		peaks = append(peaks, peakRSSMB())
		iters = append(iters, float64((it.load+it.sweep).Nanoseconds())/1e6/slow)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	res.set("peak_rss_mb", Mean(peaks), "MB")
	res.set("iteration_ms", Median(iters), "ms")
	fmt.Fprintf(os.Stderr, "replay: %d iterations, median %.1f ms\n", len(iters), Median(iters))
	return res, nil
}

// replayLedger is the replay part of the traced run: untraced and traced
// iterations for the tracing overhead and the load and sweep throughputs,
// then the lanes.
func replayLedger(rc *runCtx, res *result) error {
	traces, err := recordTraces(rc.seed)
	if err != nil {
		return err
	}
	var mbps, mrps []float64
	overhead, err := tracingOverhead(rc, func(r *Recorder, timed bool) error {
		sub := *rc
		sub.rec = r
		r0 := refKernel()
		top := r.Begin("replay.iteration", 0, 0)
		it, err := runReplayIteration(&sub, res, traces, top)
		r.Finish(top)
		slow := slowdown(r0, refKernel())
		if r == nil && timed {
			mbps = append(mbps, float64(it.bytes)/1e6/it.load.Seconds()*slow)
			mrps = append(mrps, float64(it.refs)/1e6/it.sweep.Seconds()*slow)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("replay.trace_overhead_frac", overhead, "frac")
	res.set("trace.load_mb_per_s", Median(mbps), "MB/s")
	res.set("trace.sweep_mrefs_per_s", Median(mrps), "Mref/s")
	return replayLanes(rc, res, traces)
}

// replayLanes times trace.Load, trace.ReplayData per policy at the
// recording geometry, and a bare L1 cache over the same references with
// and without the miss taxonomy. The replays and cache lanes of one trace
// take turns call by call.
func replayLanes(rc *runCtx, res *result, traces []replayTrace) error {
	rec := rc.rec
	const per = 400 * time.Millisecond
	var loadNs, events, refs float64
	sum := map[string]float64{}
	for _, tr := range traces {
		var d *trace.Data
		lt, err := medianCall(rec, "trace.Load", per, []replayTrace{tr}, func(tr replayTrace) error {
			var err error
			d, err = trace.Load(bytes.NewReader(tr.jsonl), trace.ReaderConfig{})
			return err
		})
		if err != nil {
			return err
		}
		loadNs += lt
		events += float64(d.Events)
		refs += float64(len(d.Refs))

		var calls []namedCall
		for _, pol := range mem.PolicyNames() {
			hier := tr.hier
			if pol != mem.PolicyLRU {
				hier.L1.Policy, hier.L2.Policy = pol, pol
			}
			calls = append(calls, namedCall{"trace.ReplayData." + pol, func() error {
				_, err := trace.ReplayData(d, trace.ReplayConfig{Hier: hier})
				return err
			}})
		}
		for _, tax := range []bool{false, true} {
			name := "mem.Cache.Access"
			if tax {
				name += "+taxonomy"
			}
			calls = append(calls, namedCall{name, func() error {
				c, err := mem.NewCache(tr.hier.L1)
				if err != nil {
					return err
				}
				if tax {
					c.EnableTaxonomy()
				}
				for _, r := range d.Refs {
					c.Access(r.Addr, r.Store)
				}
				return nil
			}})
		}
		ns, err := medianCalls(rec, time.Duration(len(calls))*per, calls)
		if err != nil {
			return err
		}
		for name, v := range ns {
			sum[name] += v
		}
	}
	res.set("trace.load_ns_per_event", loadNs/events, "ns/event")
	for _, pol := range mem.PolicyNames() {
		res.set("trace.replay_ns_per_ref."+pol, sum["trace.ReplayData."+pol]/refs, "ns/ref")
	}
	res.set("mem.access_ns_per_ref", sum["mem.Cache.Access"]/refs, "ns/ref")
	res.set("mem.taxonomy_ns_per_ref", (sum["mem.Cache.Access+taxonomy"]-sum["mem.Cache.Access"])/refs, "ns/ref")
	res.set("trace.refs", refs, "count")
	return nil
}
