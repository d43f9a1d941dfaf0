package sim_test

import (
	"testing"

	"congestmwc"
	"congestmwc/sim"
)

func pathGraph(t *testing.T, n int) *congestmwc.Graph {
	t.Helper()
	edges := make([]congestmwc.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, congestmwc.Edge{From: i, To: i + 1})
	}
	g, err := congestmwc.NewGraph(n, edges, congestmwc.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// echoFlood floods a token from node 0; heardAt[v] records the round.
type echoFlood struct {
	sim.Base
	heardAt []int
}

func (p *echoFlood) Init(nd *sim.Node) {
	if nd.ID() == 0 {
		p.heardAt[0] = 0
		for _, u := range nd.Neighbors() {
			nd.SendTag(u, 1)
		}
	}
}

func (p *echoFlood) Deliver(nd *sim.Node, d sim.Delivery) {
	if p.heardAt[nd.ID()] >= 0 {
		return
	}
	p.heardAt[nd.ID()] = nd.Round()
	for _, u := range nd.Neighbors() {
		if u != d.From {
			nd.SendTag(u, 1)
		}
	}
}

func TestPublicSimulatorFlood(t *testing.T) {
	const n = 8
	g := pathGraph(t, n)
	nw, err := sim.New(g, congestmwc.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	heard := make([]int, n)
	for i := range heard {
		heard[i] = -1
	}
	rounds, err := nw.RunUniform(&echoFlood{heardAt: heard})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if heard[v] != v {
			t.Errorf("node %d heard at round %d, want %d", v, heard[v], v)
		}
	}
	if rounds != n-1 {
		t.Errorf("rounds = %d, want %d", rounds, n-1)
	}
	if s := nw.Stats(); s.Messages == 0 || s.Rounds != rounds {
		t.Errorf("stats inconsistent: %+v", s)
	}
	if nw.Round() != rounds {
		t.Errorf("Round() = %d, want %d", nw.Round(), rounds)
	}
}

func TestPublicSimulatorPhases(t *testing.T) {
	g := pathGraph(t, 5)
	nw, err := sim.New(g, congestmwc.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	heard := make([]int, 5)
	for i := range heard {
		heard[i] = -1
	}
	r1, err := nw.RunUniform(&echoFlood{heardAt: heard})
	if err != nil {
		t.Fatal(err)
	}
	heard2 := make([]int, 5)
	for i := range heard2 {
		heard2[i] = -1
	}
	if _, err := nw.RunUniform(&echoFlood{heardAt: heard2}); err != nil {
		t.Fatal(err)
	}
	// Second phase continues the global round clock.
	if heard2[4] != r1+4 {
		t.Errorf("phase 2 depth-4 arrival at round %d, want %d", heard2[4], r1+4)
	}
	if nw.Stats().Rounds != 2*r1 {
		t.Errorf("accumulated rounds = %d, want %d", nw.Stats().Rounds, 2*r1)
	}
}

// messageCounter is a user-written observer over the public API: it wants
// deliveries only.
type messageCounter struct{ messages, other int }

func (c *messageCounter) Wants() sim.Mask { return sim.MaskOf(sim.KindMessage) }

func (c *messageCounter) Observe(ev *sim.Event) {
	if ev.Kind == sim.KindMessage {
		c.messages++
	} else {
		c.other++
	}
}

func TestPublicSimulatorObserver(t *testing.T) {
	g := pathGraph(t, 4)
	nw, err := sim.New(g, congestmwc.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counter := &messageCounter{}
	col := &sim.Collector{}
	nw.SetObserver(sim.Multi(counter, col))
	heard := []int{-1, -1, -1, -1}
	if _, err := nw.RunUniform(&echoFlood{heardAt: heard}); err != nil {
		t.Fatal(err)
	}
	if counter.messages != nw.Stats().Messages || col.Messages != nw.Stats().Messages {
		t.Errorf("observers saw %d and %d messages, stats %d", counter.messages, col.Messages, nw.Stats().Messages)
	}
	if counter.other != 0 {
		t.Errorf("counter was handed %d events outside its mask", counter.other)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := sim.New(nil, congestmwc.Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	disc, err := congestmwc.NewGraph(4, []congestmwc.Edge{
		{From: 0, To: 1}, {From: 2, To: 3},
	}, congestmwc.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.New(disc, congestmwc.Options{}); err == nil {
		t.Error("disconnected network should fail")
	}
}
