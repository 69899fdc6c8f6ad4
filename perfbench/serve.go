package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"informing/internal/asm"
	"informing/internal/cluster"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/isa"
	"informing/internal/serve"
	"informing/internal/stats"
	"informing/internal/store"
)

// The serve workload is the only one that runs informd's serving layers:
// two in-process nodes (serve + store + cluster) behind real loopback
// listeners, driven by one closed-loop client sending the planned mix of
// plan.go. Its simulations are tiny, so serving overhead dominates.
// Latency is only ever summarised per outcome class.

const clusterSecret = "perfbench-in-process"

// serveNode is one in-process informd.
type serveNode struct {
	srv    *serve.Server
	cl     *cluster.Cluster
	st     *store.Store
	hs     *http.Server
	url    string
	served chan error
}

// serveCluster is the two nodes, their plan and the store directory.
type serveCluster struct {
	nodes [2]*serveNode
	plan  *servePlan
	dir   string
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "informd: "+format+"\n", args...)
}

// listenSplit opens two loopback listeners whose URLs split the fig3 grid
// evenly between the nodes under rendezvous hashing. Ports are assigned
// by the kernel, and ownership depends on them; an uneven split would
// make experiments at one node forward more cells than at the other.
func listenSplit() ([2]net.Listener, []string, error) {
	keys, err := fig3Keys()
	if err != nil {
		return [2]net.Listener{}, nil, err
	}
	for attempt := 0; attempt < 500; attempt++ {
		var lns [2]net.Listener
		var urls []string
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				if i == 1 {
					lns[0].Close()
				}
				return lns, nil, err
			}
			lns[i] = ln
			urls = append(urls, "http://"+ln.Addr().String())
		}
		owned := 0
		for _, k := range keys {
			if ownerIndex(urls, k) == 0 {
				owned++
			}
		}
		if 2*owned == len(keys) {
			return lns, urls, nil
		}
		lns[0].Close()
		lns[1].Close()
	}
	return [2]net.Listener{}, nil, fmt.Errorf("no listener pair split the fig3 grid evenly")
}

func bootServeCluster(dir string, seed int64) (*serveCluster, error) {
	lns, urls, err := listenSplit()
	if err != nil {
		return nil, err
	}
	sc := &serveCluster{dir: dir}
	for i := range sc.nodes {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, fmt.Sprint(i)), Version: serve.CodeVersion, Logf: logStderr})
		if err == nil {
			var cl *cluster.Cluster
			cl, err = cluster.New(cluster.Config{Self: urls[i], Peers: urls, Version: serve.CodeVersion, Secret: clusterSecret, Logf: logStderr})
			if err == nil {
				srv := serve.New(serve.Config{CacheEntries: planLRU, Cluster: cl, Store: st, Logf: logStderr})
				n := &serveNode{srv: srv, cl: cl, st: st, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], served: make(chan error, 1)}
				go func(ln net.Listener) { n.served <- n.hs.Serve(ln) }(lns[i])
				sc.nodes[i] = n
				continue
			}
		}
		for j := i; j < len(lns); j++ {
			lns[j].Close()
		}
		sc.close()
		return nil, err
	}
	sc.plan, err = newServePlan(urls, seed)
	if err != nil {
		sc.close()
		return nil, err
	}
	return sc, nil
}

// close stops both nodes, waits for their listeners to return, and
// removes the stores.
func (sc *serveCluster) close() {
	for _, n := range sc.nodes {
		if n != nil {
			n.hs.Close()
			<-n.served
			n.srv.Close()
		}
	}
	os.RemoveAll(sc.dir)
}

// counters reads the predicted counters of both nodes from their
// registries.
func (sc *serveCluster) counters() [2][]uint64 {
	var out [2][]uint64
	for i, n := range sc.nodes {
		for _, name := range counterNames {
			out[i] = append(out[i], n.srv.Sim().Reg.Counter(name).Load())
		}
	}
	return out
}

// batchStats returns the dispatcher batch-size sum and count of both
// nodes.
func (sc *serveCluster) batchStats() (sum int64, count uint64) {
	for _, n := range sc.nodes {
		h := n.srv.Sim().Reg.Histogram(serve.MetricBatchSize, nil)
		sum += h.Sum()
		count += h.Count()
	}
	return sum, count
}

// sendFunc delivers one request body to node and returns the status,
// the response body and the latency the caller observed.
type sendFunc func(node int, path string, body []byte) (int, []byte, time.Duration, error)

func httpSender(sc *serveCluster, hc *http.Client) sendFunc {
	return func(node int, path string, body []byte) (int, []byte, time.Duration, error) {
		t := time.Now()
		resp, err := hc.Post(sc.nodes[node].url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b, time.Since(t), err
	}
}

// handlerSender calls the node's handler in-process, without the
// client's HTTP hop (forwards between nodes still cross loopback).
func handlerSender(sc *serveCluster) sendFunc {
	return func(node int, path string, body []byte) (int, []byte, time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		t := time.Now()
		sc.nodes[node].srv.Handler().ServeHTTP(w, req)
		return w.Code, w.Body.Bytes(), time.Since(t), nil
	}
}

// runSample is one program response kept for checking against a direct
// simulation.
type runSample struct {
	source string
	run    json.RawMessage
}

// serveDriver issues planned requests and checks every response.
type serveDriver struct {
	sc        *serveCluster
	res       *result
	fig3Table string
	expBody   []byte
	samples   []runSample
	sent      int64
}

// sampleEvery is the stride of program responses checked against a
// direct core.Config.Run of the same program.
const sampleEvery = 97

// issue sends one planned request and checks its response. setup
// requests are not counted as attempts and their classes are not
// checked. It returns the observed latency, or ok=false on a failure.
func (d *serveDriver) issue(r planned, send sendFunc, setup bool) (time.Duration, bool, error) {
	hits, computed, err := d.sc.plan.apply(r, !setup)
	if err != nil {
		return 0, false, err
	}
	path, body := "/v1/experiment", d.expBody
	if r.class != classExp {
		path = "/v1/simulate"
		body, err = json.Marshal(serve.SimulateRequest{Cells: []serve.Request{r.pk.req}})
		if err != nil {
			return 0, false, err
		}
	}
	if !setup {
		d.res.Attempted++
	}
	d.sent++
	fail := func(format string, args ...any) (time.Duration, bool, error) {
		if setup {
			return 0, false, fmt.Errorf("set-up request: "+format, args...)
		}
		d.res.failf(format, args...)
		return 0, false, nil
	}
	status, b, lat, err := send(r.node, path, body)
	if err != nil {
		return fail("%s at node %d: %v", r.class, r.node, err)
	}
	if status != http.StatusOK {
		return fail("%s at node %d: status %d: %.200s", r.class, r.node, status, b)
	}
	if r.class == classExp {
		var er serve.ExperimentResponse
		if err := json.Unmarshal(b, &er); err != nil {
			return fail("exp response: %v", err)
		}
		if er.Table != d.fig3Table || er.CacheHits != hits || er.Computed != computed {
			return fail("exp at node %d: cache_hits %d computed %d (want %d, %d), table match %v",
				r.node, er.CacheHits, er.Computed, hits, computed, er.Table == d.fig3Table)
		}
		return lat, true, nil
	}
	var sr struct {
		Results []struct {
			Cached bool             `json:"cached"`
			Run    json.RawMessage  `json:"run"`
			Error  *serve.WireError `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &sr); err != nil || len(sr.Results) != 1 {
		return fail("%s response: %v (%d results)", r.class, err, len(sr.Results))
	}
	cr := sr.Results[0]
	if cr.Error != nil || len(cr.Run) == 0 {
		return fail("%s at node %d: error %+v", r.class, r.node, cr.Error)
	}
	if !setup && cr.Cached != (r.class != classCold) {
		return fail("%s at node %d: cached=%v", r.class, r.node, cr.Cached)
	}
	if !setup && d.sent%sampleEvery == 0 {
		d.samples = append(d.samples, runSample{source: r.pk.req.Source, run: cr.Run})
	}
	return lat, true, nil
}

// checkSamples compares every sampled response's stats.Run with a
// direct simulation of the same program.
func (d *serveDriver) checkSamples() error {
	for _, s := range d.samples {
		d.res.Attempted++
		run, err := directRun(s.source)
		if err != nil {
			return err
		}
		want, err := json.Marshal(run)
		if err != nil {
			return err
		}
		var got bytes.Buffer
		if err := json.Compact(&got, s.run); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want) {
			d.res.failf("served stats.Run differs from a direct run:\n got %s\nwant %s", got.Bytes(), want)
		}
	}
	d.samples = nil
	return nil
}

// directRun simulates a program the way informd does for a canonical
// program request (ooo machine, informing off, default budget).
func directRun(source string) (stats.Run, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return stats.Run{}, err
	}
	return core.R10000(core.Off).WithMaxInsts(serve.DefaultMaxInsts).Run(prog)
}

// sender is one way of delivering requests, named for its spans.
type sender struct {
	name string
	send sendFunc
}

// phase is the outcome of running planned rounds for a while, with
// latencies, block times and round times kept per sender.
type phase struct {
	lat    [][numClasses][]float64 // ms
	blocks [][]float64             // each block's summed latency, ms
	rounds [][]time.Duration
	peaks  []float64 // each block's peak RSS, MB
	match  float64   // class_match_ratio over the phase
	batch  float64   // mean dispatcher batch size over the phase
}

// runRounds sends planned rounds until window has elapsed and every
// sender has seen at least minExp experiments answered (the rarest
// class), then checks each node's counter deltas against the plan's
// predictions; every counter that differs counts as failed operations.
// Rounds run in blocks of 2×expEvery, so each block holds experiments at
// both nodes; with several senders they take turns block by block, so
// each sees the same host noise. The reference kernel runs between
// blocks, and each block's latencies are divided by the host slowdown
// around it. The peak-RSS count restarts with every block.
func (d *serveDriver) runRounds(window time.Duration, minExp int, senders []sender, rec *Recorder) (*phase, error) {
	ph := &phase{
		lat:    make([][numClasses][]float64, len(senders)),
		blocks: make([][]float64, len(senders)),
		rounds: make([][]time.Duration, len(senders)),
	}
	enough := func() bool {
		for _, l := range ph.lat {
			if len(l[classExp]) < minExp {
				return false
			}
		}
		return true
	}
	before, predBefore := d.sc.counters(), d.sc.plan.counters()
	bsum0, bn0 := d.sc.batchStats()
	var block [numClasses][]float64 // this block's latencies, ms
	ref := refKernel()
	if err := resetPeakRSS(true); err != nil {
		return nil, err
	}
	start := time.Now()
	for time.Since(start) < window || !enough() || d.sc.plan.round%(2*expEvery) != 0 {
		si := (d.sc.plan.round / (2 * expEvery)) % len(senders)
		round, err := d.sc.plan.nextRound()
		if err != nil {
			return nil, err
		}
		rt := time.Now()
		for _, r := range round {
			id := rec.Begin(senders[si].name+"."+r.class.String(), 0, d.sent)
			lat, ok, err := d.issue(r, senders[si].send, false)
			rec.Finish(id)
			if err != nil {
				return nil, err
			}
			if ok {
				block[r.class] = append(block[r.class], float64(lat.Nanoseconds())/1e6)
			}
		}
		ph.rounds[si] = append(ph.rounds[si], time.Since(rt))
		if d.sc.plan.round%(2*expEvery) == 0 {
			ph.peaks = append(ph.peaks, peakRSSMB())
			next := refKernel()
			slow := slowdown(ref, next)
			sum := 0.0
			for c := range block {
				for _, ms := range block[c] {
					ph.lat[si][c] = append(ph.lat[si][c], ms/slow)
					sum += ms / slow
				}
				block[c] = block[c][:0]
			}
			ph.blocks[si] = append(ph.blocks[si], sum)
			ref = next
			if err := resetPeakRSS(false); err != nil {
				return nil, err
			}
		}
	}
	after, predAfter := d.sc.counters(), d.sc.plan.counters()
	var minSum, maxSum uint64
	for i := range after {
		pred0, pred1 := predBefore[i].values(), predAfter[i].values()
		for j, name := range counterNames {
			got, want := after[i][j]-before[i][j], pred1[j]-pred0[j]
			minSum += min(got, want)
			maxSum += max(got, want)
			if got != want {
				diff := int64(got) - int64(want)
				d.res.failN(max(diff, -diff), "node %d %s moved %d, plan predicts %d", i, name, got, want)
			}
		}
	}
	ph.match = 1
	if maxSum > 0 {
		ph.match = float64(minSum) / float64(maxSum)
	}
	bsum1, bn1 := d.sc.batchStats()
	if bn1 > bn0 {
		ph.batch = float64(bsum1-bsum0) / float64(bn1-bn0)
	}
	return ph, nil
}

func fig3Reference() (string, error) {
	ne, err := experiments.Named("fig3")
	if err != nil {
		return "", err
	}
	opt := experiments.DefaultOptions()
	rs, err := experiments.HandlerOverhead(ne.Benchmarks, ne.Specs, opt)
	if err != nil {
		return "", err
	}
	return experiments.FormatFigure(ne.Title, rs), nil
}

// serveSession is a booted two-node cluster with its driver and client.
type serveSession struct {
	drv  *serveDriver
	send sendFunc
	hc   *http.Client
}

func (ss *serveSession) close() {
	ss.drv.sc.close()
	ss.hc.CloseIdleConnections()
}

// startServe boots the two nodes n times and brings each boot's stores
// and LRUs to the plan's start state, keeping the last boot. It returns
// the median scaled set-up time.
func startServe(rc *runCtx, res *result, n int) (*serveSession, float64, error) {
	table, err := fig3Reference()
	if err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	var drv *serveDriver
	boots := 0
	sc, setup, err := medianSetup(n, func() (*serveCluster, error) {
		boots++
		dir := filepath.Join(rc.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), boots))
		sc, err := bootServeCluster(dir, rc.seed)
		if err != nil {
			return nil, err
		}
		drv = &serveDriver{sc: sc, res: res, fig3Table: table, expBody: []byte(`{"name":"fig3"}`)}
		send := httpSender(sc, hc)
		for _, r := range sc.plan.setup() {
			if _, _, err := drv.issue(r, send, true); err != nil {
				sc.close()
				return nil, err
			}
		}
		return sc, nil
	}, (*serveCluster).close)
	if err != nil {
		hc.CloseIdleConnections()
		return nil, 0, err
	}
	return &serveSession{drv: drv, send: httpSender(sc, hc), hc: hc}, setup, nil
}

// serveSetups is how many times the untraced run boots the cluster for
// setup_s. With three boots the medians of two sets of ten runs differed
// by 19%.
const serveSetups = 5

func runServe(rc *runCtx) (*result, error) {
	res := &result{Correct: true}
	ss, setup, err := startServe(rc, res, serveSetups)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	ph, err := ss.drv.runRounds(rc.window, 0, []sender{{"client", ss.send}}, nil)
	if err != nil {
		return nil, err
	}
	if err := ss.drv.checkSamples(); err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	// The blocks' peaks, taken before the sampled responses are simulated
	// again: those back-to-back simulations are the benchmark's check,
	// not the mix.
	res.set("peak_rss_mb", Mean(ph.peaks), "MB")
	res.set("iteration_ms", Median(ph.blocks[0]), "ms")
	for c := serveClass(0); c < numClasses; c++ {
		fmt.Fprintf(os.Stderr, "serve: %-5s p50 %.4f ms over %d requests\n", c, Median(ph.lat[0][c]), len(ph.lat[0][c]))
	}
	fmt.Fprintf(os.Stderr, "serve: %d blocks of %d rounds, median %.2f ms, class match %.4f, mean batch %.3f\n",
		len(ph.blocks[0]), 2*expEvery, Median(ph.blocks[0]), ph.match, ph.batch)
	return res, nil
}

// serveLedger is the serve part of the traced run. The mix runs twice,
// untraced and then traced, each time with rounds alternating between
// HTTP and calling the handlers in-process, so handler and client latency
// are taken under the same host noise and the two phases differ only by
// the spans; then the single layers run on their own.
func serveLedger(rc *runCtx, res *result) error {
	ss, _, err := startServe(rc, res, 1)
	if err != nil {
		return err
	}
	defer ss.close()
	drv := ss.drv
	senders := []sender{{"client", ss.send}, {"handler", handlerSender(drv.sc)}}
	// Experiments are one request in 201, and the p90 needs a hundred.
	plain, err := drv.runRounds(rc.window, 5*minTail, senders, nil)
	if err == nil {
		err = drv.checkSamples()
	}
	if err != nil {
		return err
	}
	traced, err := drv.runRounds(rc.window, 5*minTail, senders, rc.rec)
	if err == nil {
		err = drv.checkSamples()
	}
	if err != nil {
		return err
	}
	allRounds := func(ph *phase) []float64 {
		return seconds(append(append([]time.Duration(nil), ph.rounds[0]...), ph.rounds[1]...))
	}
	res.set("serve.trace_overhead_frac", Median(allRounds(traced))/Median(allRounds(plain))-1, "frac")
	res.set("serve.class_match_ratio", (plain.match+traced.match)/2, "frac")
	res.set("serve.batch_size_mean", (plain.batch+traced.batch)/2, "cells")

	for c := serveClass(0); c < numClasses; c++ {
		client := append(append([]float64(nil), plain.lat[0][c]...), traced.lat[0][c]...)
		handler := append(append([]float64(nil), plain.lat[1][c]...), traced.lat[1][c]...)
		c50, _, err := Percentile(client, 50)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		h50, _, err := Percentile(handler, 50)
		if err != nil {
			return fmt.Errorf("%s handler: %w", c, err)
		}
		res.set("serve."+c.String()+"_p50_ms", c50, "ms")
		res.set("serve.handler_us."+c.String(), h50*1e3, "us")
		// loopback is a difference of two class medians taken over
		// different requests of the same class, not of one request sent
		// both ways. For fwd and exp both paths also cross loopback to
		// the peer, and the difference came out negative, so it is not
		// the cost of the client's HTTP hop and is not reported.
		if c != classFwd && c != classExp {
			res.set("http.loopback_us."+c.String(), (c50-h50)*1e3, "us")
		}
		tail := 99.0
		if c == classExp {
			tail = 90 // a run holds too few experiments for a p99
		}
		v, n, err := Percentile(client, tail)
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
		res.set(fmt.Sprintf("serve.%s_p%g_ms", c, tail), v, "ms")
		res.set("serve."+c.String()+"_n", float64(n), "count")
	}
	return serveLayers(rc, res, drv.sc)
}

// serveLayers times canonicalization, the durable store, one cluster
// forward and the cold simulation on their own, on the plan's inputs.
func serveLayers(rc *runCtx, res *result, sc *serveCluster) error {
	const per = 500 * time.Millisecond
	p := sc.plan
	var raw []serve.Request
	for _, pk := range p.store[0] {
		raw = append(raw, serve.Request{Kind: serve.KindProgram, Source: pk.req.Source})
	}
	v, err := medianCall(rc.rec, "serve.Canonicalize+Fingerprint", per, raw, func(r serve.Request) error {
		c, err := serve.Canonicalize(r, 0)
		_ = serve.Fingerprint(c)
		return err
	})
	if err != nil {
		return err
	}
	res.set("serve.canon_us", v/1e3, "us")

	// The store: node 0's stored payloads written to and read from the
	// benchmark's own store.
	type kv struct {
		key     string
		payload []byte
	}
	var entries []kv
	for _, pk := range p.store[0] {
		b, ok, err := sc.nodes[0].st.Get(pk.key)
		if err != nil || !ok {
			return fmt.Errorf("store payload %s: ok=%v err=%v", pk.key, ok, err)
		}
		entries = append(entries, kv{pk.key, b})
	}
	own, err := store.Open(store.Options{Dir: filepath.Join(sc.dir, "ledger"), Version: serve.CodeVersion})
	if err != nil {
		return err
	}
	v, err = medianCall(rc.rec, "store.Put", per, entries, func(e kv) error { return own.Put(e.key, e.payload) })
	if err != nil {
		return err
	}
	res.set("store.put_us", v/1e3, "us")
	v, err = medianCall(rc.rec, "store.Get", per, entries, func(e kv) error {
		b, ok, err := own.Get(e.key)
		if err == nil && (!ok || !bytes.Equal(b, e.payload)) {
			err = fmt.Errorf("store returned a different payload for %s", e.key)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("store.get_us", v/1e3, "us")

	// One forward from node 0 to the owner of its forward-pool keys.
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/json")
	hdr.Set(serve.HeaderForwarded, serve.CodeVersion)
	hdr.Set(serve.HeaderClusterAuth, clusterSecret)
	var bodies [][]byte
	for _, pk := range p.fwd[0] {
		b, err := json.Marshal(serve.SimulateRequest{Cells: []serve.Request{pk.req}})
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	v, err = medianCall(rc.rec, "cluster.Forward", per, bodies, func(b []byte) error {
		status, _, err := sc.nodes[0].cl.Forward(context.Background(), sc.nodes[1].url, "/v1/simulate", b, hdr)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("cluster.forward_us", v/1e3, "us")

	var progs []*isa.Program
	for i := 0; i < 64; i++ {
		pk, err := p.coldKey(i % 2)
		if err != nil {
			return err
		}
		prog, err := asm.Assemble(pk.req.Source)
		if err != nil {
			return err
		}
		progs = append(progs, prog)
	}
	cfg := core.R10000(core.Off).WithMaxInsts(serve.DefaultMaxInsts)
	v, err = medianCall(rc.rec, "core.Config.Run", per, progs, func(prog *isa.Program) error {
		_, err := cfg.Run(prog)
		return err
	})
	if err != nil {
		return err
	}
	res.set("sim.cold_cell_us", v/1e3, "us")
	return nil
}
