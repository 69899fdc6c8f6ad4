package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"informing/internal/coherence"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/multi"
	"informing/internal/obs"
	"informing/internal/sched"
	"informing/internal/workload"
)

// The figures workload regenerates the paper's two headline results the
// way a researcher does: the Figure-2 handler-overhead sweep (N, S1 and
// S10 bars, both machines) and the Figure-4 coherence comparison. The
// simulator is deterministic, so both rendered tables must hash to the
// committed digests in expected.go on every iteration. It takes no
// input from the seed: the paper fixes its inputs.

const figMaxInsts = 100_000_000

// simWorkers is the worker count of the timed sweeps. On a small shared
// host a sweep on every core varied ±8% between back-to-back iterations
// against ±3% on one worker, so the timed part runs sequentially; the
// ledger's sched lane measures the pool on every core.
const simWorkers = 1

// fig2Specs are the N, S1 and S10 bars of Figure 2.
func fig2Specs() []experiments.PlanSpec {
	var out []experiments.PlanSpec
	for _, s := range experiments.Figure2Plans() {
		if s.Label == "N" || s.Label == "S1" || s.Label == "S10" {
			out = append(out, s)
		}
	}
	return out
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// figCell is one Figure-2 (benchmark, machine, plan) cell with its
// assembled program.
type figCell struct {
	bench   string
	machine core.Machine
	spec    experiments.PlanSpec
	prog    *isa.Program
}

func (c figCell) config() core.Config {
	return experiments.ConfigFor(c.machine, c.spec.Scheme).WithMaxInsts(figMaxInsts)
}

// figInputs assembles every Figure-2 program and generates the Figure-4
// reference streams: the inputs of the workload.
type figInputs struct {
	cells []figCell
	progs []figCell // one per (benchmark, plan), machine unset
	apps  []multi.App
}

func buildFigInputs(rec *Recorder, parent int) (*figInputs, error) {
	in := &figInputs{}
	machines := []core.Machine{core.OutOfOrder, core.InOrder}
	for _, bm := range workload.Fig2Set() {
		for _, spec := range fig2Specs() {
			id := rec.Begin("asm.build", parent, 0)
			prog, err := workload.Build(bm, spec.Make(), 1)
			rec.Finish(id)
			if err != nil {
				return nil, fmt.Errorf("build %s/%s: %w", bm.Name, spec.Label, err)
			}
			in.progs = append(in.progs, figCell{bench: bm.Name, spec: spec, prog: prog})
		}
	}
	for _, bm := range workload.Fig2Set() {
		for _, m := range machines {
			for _, p := range in.progs {
				if p.bench == bm.Name {
					c := p
					c.machine = m
					in.cells = append(in.cells, c)
				}
			}
		}
	}
	in.apps = coherence.Apps(multi.DefaultConfig().Processors)
	return in, nil
}

// figIter is one regeneration of both figures. Its times are CPU time
// scaled to the nominal host (see refNominal).
type figIter struct {
	fig2, fig4 time.Duration
	insts      uint64 // Figure-2 simulated instructions
	refs       uint64 // Figure-4 simulated references
}

// scaledCPU runs fn and returns its CPU time divided by the host slowdown
// measured around it; *ref is the kernel time before fn and becomes the
// one after.
func scaledCPU(ref *time.Duration, fn func() error) (time.Duration, error) {
	t := cpuTime()
	err := fn()
	cpu := cpuTime() - t
	next := refKernel()
	d := time.Duration(float64(cpu) / slowdown(*ref, next))
	*ref = next
	return d, err
}

// runFigIteration regenerates both figures. The Figure-2 sweep runs one
// benchmark per HandlerOverhead call, which yields the same cells and
// results as one call over the set, so that the reference kernel runs
// every half second or so and the scaling follows the host.
func runFigIteration(rc *runCtx, res *result, parent int) (figIter, error) {
	var it figIter
	runtime.GC() // each iteration starts from a collected heap, not the last one's garbage
	opt := experiments.DefaultOptions()
	opt.Workers = simWorkers
	ref := refKernel()
	var rs []experiments.Result
	for i, bm := range workload.Fig2Set() {
		id := rc.rec.Begin("experiments.HandlerOverhead", parent, int64(i))
		d, err := scaledCPU(&ref, func() error {
			part, err := experiments.HandlerOverhead([]workload.Benchmark{bm}, fig2Specs(), opt)
			rs = append(rs, part...)
			return err
		})
		rc.rec.Finish(id)
		if err != nil {
			return it, fmt.Errorf("figure 2: %w", err)
		}
		it.fig2 += d
	}
	for _, r := range rs {
		it.insts += r.Run.Instrs
	}
	res.Attempted++
	if got := digest(experiments.FormatFigure("Figure 2", rs)); got != expectFig2Digest {
		res.failf("figure 2 table digest %s, want %s", got, expectFig2Digest)
	}

	var rows []coherence.Fig4Row
	var speedup map[string]float64
	id := rc.rec.Begin("coherence.Figure4", parent, 0)
	d, err := scaledCPU(&ref, func() error {
		var err error
		rows, speedup, err = coherence.Figure4(multi.DefaultConfig(), simWorkers)
		return err
	})
	rc.rec.Finish(id)
	if err != nil {
		return it, fmt.Errorf("figure 4: %w", err)
	}
	it.fig4 = d
	for _, row := range rows {
		for _, r := range row.Results {
			it.refs += r.SharedReads + r.SharedWrites + r.PrivateRefs
		}
	}
	res.Attempted++
	if got := digest(coherence.FormatFigure4(rows, speedup)); got != expectFig4Digest {
		res.failf("figure 4 table digest %s, want %s", got, expectFig4Digest)
	}
	return it, nil
}

func runFigures(rc *runCtx) (*result, error) {
	res := &result{Correct: true}
	// The sweeps assemble their own programs and reference streams, so
	// figures has no set-up apart from the timed work. Its set-up is one
	// untimed, checked iteration in the fresh process: the cost a
	// researcher pays for the first regeneration.
	_, setup, err := medianSetup(1, func() (figIter, error) { return runFigIteration(rc, res, 0) }, nil)
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
		it, err := runFigIteration(rc, res, 0)
		peaks = append(peaks, peakRSSMB())
		iters = append(iters, float64((it.fig2+it.fig4).Nanoseconds())/1e6)
		fmt.Fprintf(os.Stderr, "figures: iteration %d: %.1f ms (Figure 2 %.2f Minst/s, Figure 4 %.2f Mref/s)\n",
			len(iters), iters[len(iters)-1], it.minstPerS(), it.mrefsPerS())
		return err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	res.set("peak_rss_mb", Mean(peaks), "MB")
	res.set("iteration_ms", Median(iters), "ms")
	fmt.Fprintf(os.Stderr, "figures: %d iterations, median %.1f ms\n", len(iters), Median(iters))
	return res, nil
}

func (it figIter) minstPerS() float64 { return float64(it.insts) / 1e6 / it.fig2.Seconds() }
func (it figIter) mrefsPerS() float64 { return float64(it.refs) / 1e6 / it.fig4.Seconds() }

// figuresLedger is the figures part of the traced run: untraced and
// traced iterations for the tracing overhead and the two figures'
// throughputs, then the lanes.
func figuresLedger(rc *runCtx, res *result) error {
	var plain []figIter
	overhead, err := tracingOverhead(rc, func(r *Recorder, timed bool) error {
		sub := *rc
		sub.rec = r
		top := r.Begin("figures.iteration", 0, 0)
		it, err := runFigIteration(&sub, res, top)
		r.Finish(top)
		if r == nil && timed {
			plain = append(plain, it)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("figures.trace_overhead_frac", overhead, "frac")
	var minst, mrefs []float64
	for _, it := range plain {
		minst = append(minst, it.minstPerS())
		mrefs = append(mrefs, it.mrefsPerS())
	}
	res.set("figure2.minst_per_s", Median(minst), "Minst/s")
	res.set("figure4.mrefs_per_s", Median(mrefs), "Mref/s")
	return figuresLanes(rc, res)
}

// tracingOverhead runs one untimed warm-up iteration of fn, then pairs
// of iterations for the window, one with a nil recorder and one with
// rc.rec, in alternating order so that both see the same host, and
// returns the traced median over the untraced median, minus one. Without
// the warm-up, the first, slower iteration of a fresh process was always
// an untraced one. fn's timed argument is false only for the warm-up.
func tracingOverhead(rc *runCtx, fn func(r *Recorder, timed bool) error) (float64, error) {
	if err := fn(nil, false); err != nil {
		return 0, err
	}
	var plain, traced []time.Duration
	_, err := timeRepeated(rc.window, func(i int) error {
		for k := 0; k < 2; k++ {
			rec, into := (*Recorder)(nil), &plain
			if (i+k)%2 == 1 {
				rec, into = rc.rec, &traced
			}
			t := time.Now()
			if err := fn(rec, true); err != nil {
				return err
			}
			*into = append(*into, time.Since(t))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return Median(seconds(traced))/Median(seconds(plain)) - 1, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// layerName names each timing core's ledger rows after its package.
var layerName = map[core.Machine]string{core.OutOfOrder: "ooo", core.InOrder: "inorder"}

// figuresLanes times the nested lanes over the Figure-2 programs and
// cells: the interpreter with a null probe, then with the real hierarchy,
// then the full timing cores without and with obs; then a parallel
// sched.Map of the same cells; then every Figure-4 simulation. The lanes
// take turns call by call, so a change in host speed lands on all of
// them, and each difference between adjacent lanes belongs to one layer.
// Every call is a span under one lane span; a lane's time is the sum of
// its calls' spans.
func figuresLanes(rc *runCtx, res *result) error {
	rec := rc.rec
	top := rec.Begin("ledger.inputs", 0, 0)
	in, err := buildFigInputs(rec, top)
	rec.Finish(top)
	if err != nil {
		return err
	}
	build := spanTotals(rec.Children(top))["asm.build"]
	res.set("asm.build_ms", float64(build.Nanoseconds())/1e6/float64(len(in.progs)), "ms")

	machines := []core.Machine{core.OutOfOrder, core.InOrder}
	work := map[string]uint64{}
	lanes := rec.Begin("ledger.lanes", 0, 0)
	call := func(name string, req int, fn func() (uint64, error)) error {
		id := rec.Begin(name, lanes, int64(req))
		n, err := fn()
		rec.Finish(id)
		work[name] += n
		return err
	}
	nullProbe := func(uint64, bool) int { return interp.LevelL1 }
	for i, p := range in.progs {
		err := call("interp.Run", i, func() (uint64, error) {
			m := interp.New(p.prog, p.spec.Scheme.Mode(), nullProbe)
			err := m.Run(figMaxInsts)
			return m.Seq, err
		})
		for _, mach := range machines {
			if err != nil {
				break
			}
			err = call("interp.Run+mem.ProbeData."+mach.String(), i, func() (uint64, error) {
				h, err := mem.NewHierarchy(experiments.ConfigFor(mach, p.spec.Scheme).HierConfig())
				if err != nil {
					return 0, err
				}
				m := interp.New(p.prog, p.spec.Scheme.Mode(), h.ProbeData)
				err = m.Run(figMaxInsts)
				return m.Seq, err
			})
		}
		if err != nil {
			return fmt.Errorf("interp %s/%s: %w", p.bench, p.spec.Label, err)
		}
	}
	var refs, l1m uint64
	for i, c := range in.cells {
		name := "core.Config.Run." + c.machine.String()
		err := call(name, i, func() (uint64, error) {
			run, err := c.config().Run(c.prog)
			refs += run.MemRefs
			l1m += run.L1Misses
			return run.Instrs, err
		})
		if err == nil {
			err = call("core.Config.Run+obs", i, func() (uint64, error) {
				run, err := c.config().WithObs(obs.NewSim()).Run(c.prog)
				return run.Instrs, err
			})
		}
		if err != nil {
			return fmt.Errorf("core %s/%s/%v: %w", c.bench, c.spec.Label, c.machine, err)
		}
	}
	rec.Finish(lanes)
	total := spanTotals(rec.Children(lanes))
	nsPer := func(names ...string) float64 {
		var t time.Duration
		var n uint64
		for _, name := range names {
			t += total[name]
			n += work[name]
		}
		return float64(t.Nanoseconds()) / float64(n)
	}
	interpNs := nsPer("interp.Run")
	res.set("interp.ns_per_inst", interpNs, "ns/inst")
	hier := func(m core.Machine) string { return "interp.Run+mem.ProbeData." + m.String() }
	res.set("mem.probe_ns_per_inst", nsPer(hier(core.OutOfOrder), hier(core.InOrder))-interpNs, "ns/inst")
	var plain time.Duration
	var insts uint64
	for _, m := range machines {
		name := "core.Config.Run." + m.String()
		res.set(layerName[m]+".ns_per_inst", nsPer(name)-nsPer(hier(m)), "ns/inst")
		plain += total[name]
		insts += work[name]
	}
	res.set("obs.overhead_frac", total["core.Config.Run+obs"].Seconds()/plain.Seconds()-1, "frac")
	res.set("interp.insts", float64(insts), "count")
	res.set("mem.refs", float64(refs), "count")
	res.set("mem.l1_misses", float64(l1m), "count")

	busy, tail, err := schedLane(rec, in.cells)
	if err != nil {
		return err
	}
	res.set("sched.busy_frac", busy, "frac")
	res.set("sched.tail_s", tail, "s")

	cfg := multi.DefaultConfig()
	clear(work)
	lanes = rec.Begin("ledger.multi", 0, 0)
	for i, app := range in.apps {
		for _, pol := range coherence.Schemes() {
			err := call("multi.Simulate."+pol.Name(), i, func() (uint64, error) {
				r, err := multi.Simulate(app, pol, cfg)
				return r.SharedReads + r.SharedWrites + r.PrivateRefs, err
			})
			if err != nil {
				return fmt.Errorf("multi %s/%s: %w", app.Name, pol.Name(), err)
			}
		}
	}
	rec.Finish(lanes)
	total = spanTotals(rec.Children(lanes))
	var mrefs uint64
	for _, pol := range coherence.Schemes() {
		res.set("multi.ns_per_ref."+pol.Name(), nsPer("multi.Simulate."+pol.Name()), "ns/ref")
		mrefs += work["multi.Simulate."+pol.Name()]
	}
	res.set("multi.refs", float64(mrefs), "count")
	return nil
}

// spanTotals sums the spans' durations per name.
func spanTotals(spans []Span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// schedLane runs the cells on a sched.Map pool of nproc workers with one
// span per cell, and derives from those spans the pool's busy share (cell
// time over workers × wall time) and its tail: the time from the first
// worker finding no job left to the end of the run.
func schedLane(rec *Recorder, cells []figCell) (busyFrac, tailS float64, err error) {
	workers := runtime.NumCPU()
	top := rec.Begin("lane.sched", 0, 0)
	jobs := make([]sched.Job[struct{}], len(cells))
	for i, c := range cells {
		i, c := i, c
		jobs[i] = func(ctx context.Context) (struct{}, error) {
			id := rec.Begin("sched.cell", top, int64(i))
			_, err := c.config().WithContext(ctx).Run(c.prog)
			rec.Finish(id)
			return struct{}{}, err
		}
	}
	_, err = sched.Map(context.Background(), workers, jobs)
	rec.Finish(top)
	if err != nil {
		return 0, 0, fmt.Errorf("sched lane: %w", err)
	}
	run := rec.Span(top)
	var busy int64
	lastStart := run.Start
	for _, s := range rec.Children(top) {
		busy += s.End - s.Start
		lastStart = max(lastStart, s.Start)
	}
	// Once the last cell has started, the first cell to finish frees a
	// worker that finds nothing left to run.
	firstIdle := run.End
	for _, s := range rec.Children(top) {
		if s.End >= lastStart {
			firstIdle = min(firstIdle, s.End)
		}
	}
	wall := float64(run.End - run.Start)
	return float64(busy) / (float64(workers) * wall), float64(run.End-firstIdle) / 1e9, nil
}
