package congest

import (
	"testing"

	"congestmwc/internal/graph"
)

// pingPong bounces a fixed-size message back to its sender on every
// delivery, producing a permanent steady-state traffic pattern: the number
// of in-flight messages is constant, every link arena reaches its high-water
// mark within a few rounds, and from then on a round must not allocate.
type pingPong struct {
	Base
}

func (p *pingPong) Init(nd *Node) {
	if nd.ID() == 0 {
		for _, u := range nd.Neighbors() {
			nd.SendTag(u, 1, 7, 11, 13)
		}
	}
}

func (p *pingPong) Deliver(nd *Node, d Delivery) {
	w := d.Msg.Words
	nd.SendTag(d.From, d.Msg.Tag, w[0], w[1], w[2])
}

// newPingPongNet builds a ring network with ping-pong programs installed and
// the init phase executed, ready for runRound driving.
func newPingPongNet(tb testing.TB, n int, opts Options) *Network {
	tb.Helper()
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{From: i, To: (i + 1) % n}
	}
	g, err := graph.Build(n, edges, graph.Options{})
	if err != nil {
		tb.Fatalf("build ring: %v", err)
	}
	net, err := NewNetwork(g, opts)
	if err != nil {
		tb.Fatalf("new network: %v", err)
	}
	prog := &pingPong{}
	for _, st := range net.nodes {
		st.program = prog
	}
	net.eng.runHandlers(net, net.all, true)
	net.afterHandlers()
	return net
}

// TestTransportRoundZeroAlloc asserts the issue's zero-allocation goal: once
// arenas have warmed up, executing a round — transmit, handler execution,
// sends, pending-set merge — performs zero heap allocations.
func TestTransportRoundZeroAlloc(t *testing.T) {
	net := newPingPongNet(t, 16, Options{Seed: 1})
	for i := 0; i < 64; i++ { // warm up arenas to steady state
		net.runRound(net.now + 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		net.runRound(net.now + 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state round allocates: %v allocs/round, want 0", allocs)
	}
}

// TestTransportRoundZeroAllocObserved repeats the zero-allocation check
// with an observer that wants every kind, messages included: dispatch
// reuses the network's one Event value, so observing a round must not
// allocate either.
func TestTransportRoundZeroAllocObserved(t *testing.T) {
	net := newPingPongNet(t, 16, Options{Seed: 1})
	rec := &recorder{mask: AllEvents}
	net.SetObserver(rec)
	for i := 0; i < 64; i++ {
		net.runRound(net.now + 1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		net.runRound(net.now + 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state observed round allocates: %v allocs/round, want 0", allocs)
	}
	if rec.counts[KindMessage] == 0 || rec.counts[KindRoundEnd] == 0 {
		t.Fatalf("observer saw no traffic: %v", rec.counts)
	}
}

// BenchmarkTransportRound measures the per-round cost of the transport and
// engine machinery alone (trivial handlers, constant traffic). Run with
// -benchmem: allocs/op must be 0.
func BenchmarkTransportRound(b *testing.B) {
	net := newPingPongNet(b, 64, Options{Seed: 1})
	for i := 0; i < 64; i++ {
		net.runRound(net.now + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.runRound(net.now + 1)
	}
}
