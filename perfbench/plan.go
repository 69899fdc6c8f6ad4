package main

import (
	"container/list"
	"fmt"
	"math/rand"

	"informing/internal/cluster"
	"informing/internal/experiments"
	"informing/internal/serve"
)

// The serve workload's request mix is planned so that every request's
// outcome class is known before it is sent. The plan runs a model of the
// two nodes — each node's result LRU and durable store, and rendezvous
// ownership — through the same decisions serve.submit makes, and
// predicts the serving counters each node must show afterwards.

type serveClass int

const (
	classHit   serveClass = iota // ingress LRU hit
	classStore                   // evicted from the LRU, read from the durable store
	classFwd                     // non-owner forwards to the owner (an owner-side store read)
	classCold                    // new program: queue, dispatcher, simulation, store write
	classExp                     // /v1/experiment fig3, every cell stored, scattered over both nodes
	numClasses
)

var classNames = [numClasses]string{"hit", "store", "fwd", "cold", "exp"}

func (c serveClass) String() string { return classNames[c] }

// Plan shape. Each round sends hit, store, hit, fwd and cold to both
// nodes (10 requests); every expEvery rounds one experiment follows,
// alternating nodes. Per round each node's LRU takes four insertions
// (its store read, its forward's ingress copy, the peer's forward read
// and its cold result), so:
//   - a hit key, touched every hitKeys/2 rounds, stays far from the tail
//     of a planLRU-entry cache;
//   - a pool key, reused every poolKeys rounds, has long been evicted;
//   - expEvery rounds push the whole fig3 grid out of both LRUs, so each
//     experiment reads its own cells from the store and forwards the
//     peer's.
//
// informd's default LRU holds 4096 entries; at that size the fig3 grid
// would need about a thousand rounds between experiments to be evicted,
// so the nodes run with planLRU instead. The mix and its proportions are
// constructed to make every class predictable, not taken from recorded
// informd traffic.
const (
	planLRU  = 64
	hitKeys  = 4
	poolKeys = 128
	expEvery = 20
)

// lruModel mirrors the serve result cache: get promotes to most recent,
// add inserts at the front and evicts from the back.
type lruModel struct {
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

func newLRUModel(capacity int) *lruModel {
	return &lruModel{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

func (l *lruModel) get(key string) bool {
	el, ok := l.m[key]
	if ok {
		l.ll.MoveToFront(el)
	}
	return ok
}

func (l *lruModel) add(key string) {
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		return
	}
	l.m[key] = l.ll.PushFront(key)
	for l.ll.Len() > l.cap {
		old := l.ll.Back()
		l.ll.Remove(old)
		delete(l.m, old.Value.(string))
	}
}

// nodeCounters are the serve_* counters the plan predicts.
type nodeCounters struct {
	Hits, StoreHits, StoreMisses, Misses, Forwarded, ForwardedServed uint64
}

// counterNames maps each predicted counter to its serve metric.
var counterNames = []string{
	serve.MetricHits, serve.MetricStoreHits, serve.MetricStoreMisses,
	serve.MetricMisses, serve.MetricForwarded, serve.MetricForwardedServed,
}

func (c nodeCounters) values() []uint64 {
	return []uint64{c.Hits, c.StoreHits, c.StoreMisses, c.Misses, c.Forwarded, c.ForwardedServed}
}

type nodeModel struct {
	lru   *lruModel
	store map[string]bool
	c     nodeCounters
}

// clusterModel predicts how two nodes resolve requests.
type clusterModel struct {
	nodes [2]*nodeModel
	owner func(key string) int
}

func newClusterModel(owner func(string) int) *clusterModel {
	m := &clusterModel{owner: owner}
	for i := range m.nodes {
		m.nodes[i] = &nodeModel{lru: newLRUModel(planLRU), store: map[string]bool{}}
	}
	return m
}

// submit mirrors serve.submit for a client request arriving at node x.
func (m *clusterModel) submit(x int, key string) serveClass {
	n := m.nodes[x]
	if n.lru.get(key) {
		n.c.Hits++
		return classHit
	}
	if n.store[key] {
		n.lru.add(key)
		n.c.Hits++
		n.c.StoreHits++
		return classStore
	}
	n.c.StoreMisses++
	if o := m.owner(key); o != x {
		n.c.Forwarded++
		m.serveForwarded(o, key)
		n.lru.add(key) // the forwarded result warms the ingress LRU
		return classFwd
	}
	m.compute(x, key)
	return classCold
}

// serveForwarded mirrors the owner side of a forwarded cell.
func (m *clusterModel) serveForwarded(o int, key string) {
	n := m.nodes[o]
	n.c.ForwardedServed++
	switch {
	case n.lru.get(key):
		n.c.Hits++
	case n.store[key]:
		n.lru.add(key)
		n.c.Hits++
		n.c.StoreHits++
	default:
		n.c.StoreMisses++
		m.compute(o, key)
	}
}

func (m *clusterModel) compute(x int, key string) {
	n := m.nodes[x]
	n.c.Misses++
	n.lru.add(key)
	n.store[key] = true
}

// experiment mirrors /v1/experiment at x and returns the cache_hits and
// computed counts its response reports. Forwards run concurrently in the
// server, so the order of LRU updates inside one experiment is not
// fixed; nothing else touches either node meanwhile, so the cells form
// one contiguous block of recency and the order inside it never changes
// which other key is evicted.
func (m *clusterModel) experiment(x int, keys []string) (hits, computed int) {
	for _, k := range keys {
		switch m.submit(x, k) {
		case classHit, classStore:
			hits++
		default:
			computed++
		}
	}
	return hits, computed
}

// planKey is one program request with its fingerprint and owner.
type planKey struct {
	req   serve.Request // canonical
	key   string
	owner int
}

// coldSource is the fixed-cost program every program request runs. Only
// the unused constant in r9 differs between requests, so every cold
// simulation costs the same.
func coldSource(c int64) string {
	return fmt.Sprintf("\tli r9, %d\n\tli r1, 4096\nloop:\n\tld r2, 0(r1)\n\taddi r1, r1, -32\n\tbne r1, r0, loop\n\thalt\n", c)
}

// planned is one request of the plan.
type planned struct {
	class serveClass
	node  int
	pk    planKey // unset for classExp
}

// servePlan generates the request sequence and checks each request's
// class against the model as it is issued.
type servePlan struct {
	model *clusterModel
	peers []string

	fig3      []string // fig3 grid fingerprints, in experiment cell order
	fig3Local [2]int   // fig3 cells each node owns

	hit, store, fwd [2][]planKey
	hitI, poolI     [2]int
	coldNext        int64
	round           int
}

// fig3Keys returns the fingerprints of the cells /v1/experiment fig3
// submits, in its benchmark → machine → plan order.
func fig3Keys() ([]string, error) {
	ne, err := experiments.Named("fig3")
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, bm := range ne.Benchmarks {
		for _, machine := range []string{serve.MachineOOO, serve.MachineInOrder} {
			for _, spec := range ne.Specs {
				c, err := serve.Canonicalize(serve.Request{Kind: serve.KindCell, Benchmark: bm.Name, Plan: spec.Label, Machine: machine}, 0)
				if err != nil {
					return nil, err
				}
				keys = append(keys, serve.Fingerprint(c))
			}
		}
	}
	return keys, nil
}

// ownerIndex returns the index in peers of key's rendezvous owner.
func ownerIndex(peers []string, key string) int {
	if cluster.OwnerOf(peers, key) == peers[0] {
		return 0
	}
	return 1
}

// newServePlan builds the key pools for the two nodes at peers from the
// seed: program constants start at a seed-chosen base, pool keys count
// up from it and cold keys from base+2^30, so no two requests of a run
// share a program.
func newServePlan(peers []string, seed int64) (*servePlan, error) {
	fig3, err := fig3Keys()
	if err != nil {
		return nil, err
	}
	p := &servePlan{peers: peers, fig3: fig3}
	p.model = newClusterModel(func(k string) int { return ownerIndex(peers, k) })
	for _, k := range fig3 {
		p.fig3Local[ownerIndex(peers, k)]++
	}
	base := rand.New(rand.NewSource(seed)).Int63n(1 << 29)
	p.coldNext = base + 1<<30
	for c := base; len(p.hit[0])+len(p.hit[1])+len(p.store[0])+len(p.store[1])+len(p.fwd[0])+len(p.fwd[1]) < 2*(hitKeys+2*poolKeys); c++ {
		pk, err := p.programKey(c)
		if err != nil {
			return nil, err
		}
		o := pk.owner
		switch {
		case len(p.hit[o]) < hitKeys:
			p.hit[o] = append(p.hit[o], pk)
		case len(p.store[o]) < poolKeys:
			p.store[o] = append(p.store[o], pk)
		case len(p.fwd[1-o]) < poolKeys:
			p.fwd[1-o] = append(p.fwd[1-o], pk) // sent to the non-owner
		}
	}
	return p, nil
}

func (p *servePlan) programKey(c int64) (planKey, error) {
	canon, err := serve.Canonicalize(serve.Request{Kind: serve.KindProgram, Source: coldSource(c)}, 0)
	if err != nil {
		return planKey{}, err
	}
	key := serve.Fingerprint(canon)
	return planKey{req: canon, key: key, owner: ownerIndex(p.peers, key)}, nil
}

// coldKey returns a new program owned by node x.
func (p *servePlan) coldKey(x int) (planKey, error) {
	for {
		pk, err := p.programKey(p.coldNext)
		p.coldNext++
		if err != nil || pk.owner == x {
			return pk, err
		}
	}
}

// setup returns the requests that bring both nodes to the plan's start
// state: the fig3 grid computed once, every pool key computed on its
// owner, then every hit key read back into its node's LRU. Their classes
// are whatever the model says; only their order matters.
func (p *servePlan) setup() []planned {
	var out []planned
	out = append(out, planned{class: classExp, node: 0})
	for x := 0; x < 2; x++ {
		for _, pool := range [][]planKey{p.hit[x], p.store[x], p.fwd[1-x]} {
			for _, pk := range pool {
				out = append(out, planned{class: classCold, node: x, pk: pk})
			}
		}
	}
	for x := 0; x < 2; x++ {
		for _, pk := range p.hit[x] {
			out = append(out, planned{class: classHit, node: x, pk: pk})
		}
	}
	return out
}

// nextRound returns the next round of the timed mix.
func (p *servePlan) nextRound() ([]planned, error) {
	var out []planned
	for _, cl := range []serveClass{classHit, classStore, classHit, classFwd, classCold} {
		for x := 0; x < 2; x++ {
			r := planned{class: cl, node: x}
			switch cl {
			case classHit:
				r.pk = p.hit[x][p.hitI[x]%hitKeys]
				p.hitI[x]++
			case classStore:
				r.pk = p.store[x][p.poolI[x]%poolKeys]
			case classFwd:
				r.pk = p.fwd[x][p.poolI[x]%poolKeys]
			case classCold:
				pk, err := p.coldKey(x)
				if err != nil {
					return nil, err
				}
				r.pk = pk
			}
			out = append(out, r)
		}
	}
	p.poolI[0]++
	p.poolI[1]++
	if p.round%expEvery == expEvery-1 {
		out = append(out, planned{class: classExp, node: (p.round / expEvery) % 2})
	}
	p.round++
	return out, nil
}

// apply runs r through the model. In checked mode a prediction that
// differs from r's class is an error in the plan. For an experiment it
// returns the cache_hits and computed counts the response must report.
func (p *servePlan) apply(r planned, checked bool) (hits, computed int, err error) {
	if r.class == classExp {
		hits, computed = p.model.experiment(r.node, p.fig3)
		if checked && (hits != p.fig3Local[r.node] || computed != len(p.fig3)-hits) {
			return hits, computed, fmt.Errorf("plan: experiment at node %d predicts %d stored / %d computed, want %d local cells from the store",
				r.node, hits, computed, p.fig3Local[r.node])
		}
		return hits, computed, nil
	}
	got := p.model.submit(r.node, r.pk.key)
	if checked && got != r.class {
		return 0, 0, fmt.Errorf("plan: request for %s at node %d predicted %s", r.class, r.node, got)
	}
	return 0, 0, nil
}

// counters returns the predicted counters of both nodes.
func (p *servePlan) counters() [2]nodeCounters {
	return [2]nodeCounters{p.model.nodes[0].c, p.model.nodes[1].c}
}
