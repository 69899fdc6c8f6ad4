package main

import (
	"net/http"
	"testing"
)

func TestLRUModelEvictsLeastRecent(t *testing.T) {
	l := newLRUModel(2)
	l.add("a")
	l.add("b")
	l.get("a") // b is now least recent
	l.add("c")
	if l.get("b") || !l.get("a") || !l.get("c") {
		t.Fatal("want b evicted, a and c kept")
	}
}

func TestClusterModelClasses(t *testing.T) {
	owner := map[string]int{"x0": 0, "y1": 1}
	m := newClusterModel(func(k string) int { return owner[k] })
	if got := m.submit(0, "x0"); got != classCold {
		t.Fatalf("first request for an owned key: %s, want cold", got)
	}
	if got := m.submit(0, "x0"); got != classHit {
		t.Fatalf("repeat: %s, want hit", got)
	}
	if got := m.submit(0, "y1"); got != classFwd {
		t.Fatalf("peer-owned key: %s, want fwd", got)
	}
	// The owner computed and stored it; the ingress LRU keeps a copy.
	if !m.nodes[1].store["y1"] || m.nodes[0].store["y1"] || !m.nodes[0].lru.get("y1") {
		t.Fatal("forward must store on the owner only and warm the ingress LRU")
	}
	for i := 0; i < planLRU; i++ {
		m.compute(0, string(rune('A'+i)))
	}
	if got := m.submit(0, "x0"); got != classStore {
		t.Fatalf("evicted owned key: %s, want store", got)
	}
	want := [2]nodeCounters{
		{Hits: 2, StoreHits: 1, StoreMisses: 2, Misses: 1 + planLRU, Forwarded: 1},
		{StoreMisses: 1, Misses: 1, ForwardedServed: 1},
	}
	for i := range want {
		if m.nodes[i].c != want[i] {
			t.Errorf("node %d counters %+v, want %+v", i, m.nodes[i].c, want[i])
		}
	}
}

// TestPlanPredictsServerCounters runs set-up and a short mix against two
// real nodes: every request must come back in its planned class and
// every serving counter must move exactly as the plan predicts.
func TestPlanPredictsServerCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two informd nodes")
	}
	table, err := fig3Reference()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := bootServeCluster(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	res := &result{Correct: true}
	drv := &serveDriver{sc: sc, res: res, fig3Table: table, expBody: []byte(`{"name":"fig3"}`)}
	send := httpSender(sc, hc)
	for _, r := range sc.plan.setup() {
		if _, _, err := drv.issue(r, send, true); err != nil {
			t.Fatal(err)
		}
	}
	ph, err := drv.runRounds(0, 2, []sender{{"client", send}, {"handler", handlerSender(sc)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || ph.match != 1 {
		t.Fatalf("correct %v, failed %d of %d, class match %v", res.Correct, res.Failed, res.Attempted, ph.match)
	}
	for si := range ph.lat {
		for c := serveClass(0); c < numClasses; c++ {
			if len(ph.lat[si][c]) == 0 {
				t.Errorf("sender %d saw no %s requests", si, c)
			}
		}
	}
}
