package congest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
)

// floodProgram floods a token from node 0 and records the round at which
// each node first hears it (i.e. BFS depth in the communication graph).
type floodProgram struct {
	Base
	heardAt []int // shared slice; each node writes only its own entry
}

func (p *floodProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		p.heardAt[0] = 0
		for _, u := range nd.Neighbors() {
			nd.SendTag(u, 1)
		}
	}
}

func (p *floodProgram) Deliver(nd *Node, d Delivery) {
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

func newFlood(n int) *floodProgram {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &floodProgram{heardAt: h}
}

func progsFor(n int, p Program) []Program {
	out := make([]Program, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestFloodTakesDepthRounds(t *testing.T) {
	g := gen.Path(6)
	net, err := NewNetwork(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := newFlood(6)
	rounds, err := net.Run(progsFor(6, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if p.heardAt[v] != v {
			t.Errorf("node %d heard at round %d, want %d", v, p.heardAt[v], v)
		}
	}
	if rounds != 5 {
		t.Errorf("rounds = %d, want 5 (path depth)", rounds)
	}
	if s := net.Stats(); s.Messages == 0 || s.Words < s.Messages {
		t.Errorf("stats look wrong: %+v", s)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	g := graph.MustBuild(4, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}}, graph.Options{})
	if _, err := NewNetwork(g, Options{}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("NewNetwork error = %v, want ErrDisconnected", err)
	}
}

func TestProgramCountMismatch(t *testing.T) {
	net, err := NewNetwork(gen.Path(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(progsFor(2, Base{}), 0); err == nil {
		t.Error("Run with wrong program count should fail")
	}
}

// fragProgram sends one large message from 0 to 1 and records delivery round.
type fragProgram struct {
	Base
	size        int
	deliveredAt *int
}

func (p *fragProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		words := make([]int64, p.size-1)
		nd.Send(1, Msg{Tag: 7, Words: words})
	}
}

func (p *fragProgram) Deliver(nd *Node, d Delivery) {
	if nd.ID() == 1 && d.Msg.Tag == 7 {
		*p.deliveredAt = nd.Round()
	}
}

func TestFragmentationChargesRounds(t *testing.T) {
	// Size-10 message over bandwidth-2 link: delivered at round ceil(10/2)=5.
	tests := []struct {
		size, bandwidth, wantRound int
	}{
		{size: 10, bandwidth: 2, wantRound: 5},
		{size: 2, bandwidth: 2, wantRound: 1},
		{size: 3, bandwidth: 2, wantRound: 2},
		{size: 7, bandwidth: 3, wantRound: 3},
		{size: 1, bandwidth: 1, wantRound: 1},
	}
	for _, tt := range tests {
		g := gen.Path(2)
		net, err := NewNetwork(g, Options{Bandwidth: tt.bandwidth})
		if err != nil {
			t.Fatal(err)
		}
		at := -1
		p := &fragProgram{size: tt.size, deliveredAt: &at}
		if _, err := net.Run(progsFor(2, p), 0); err != nil {
			t.Fatal(err)
		}
		if at != tt.wantRound {
			t.Errorf("size %d bw %d: delivered at round %d, want %d",
				tt.size, tt.bandwidth, at, tt.wantRound)
		}
	}
}

// pipelineProgram sends k unit messages from 0 to 1; FIFO pipelining should
// deliver the last at round ~k/B.
type pipelineProgram struct {
	Base
	k        int
	lastAt   *int
	received *int
}

func (p *pipelineProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		for i := 0; i < p.k; i++ {
			nd.SendTag(1, int64(i), int64(i))
		}
	}
}

func (p *pipelineProgram) Deliver(nd *Node, d Delivery) {
	if nd.ID() == 1 {
		*p.received++
		*p.lastAt = nd.Round()
	}
}

func TestPipelining(t *testing.T) {
	g := gen.Path(2)
	net, err := NewNetwork(g, Options{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	last, recv := -1, 0
	p := &pipelineProgram{k: 20, lastAt: &last, received: &recv}
	if _, err := net.Run(progsFor(2, p), 0); err != nil {
		t.Fatal(err)
	}
	if recv != 20 {
		t.Fatalf("received %d messages, want 20", recv)
	}
	// 20 messages of size 2 over bandwidth 2 = 20 rounds.
	if last != 20 {
		t.Errorf("last delivery at round %d, want 20", last)
	}
}

func TestQueueLen(t *testing.T) {
	g := gen.Path(2)
	net, err := NewNetwork(g, Options{Bandwidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seenLen int
	p := &queueLenProgram{seen: &seenLen}
	if _, err := net.Run(progsFor(2, p), 0); err != nil {
		t.Fatal(err)
	}
	if seenLen != 3 {
		t.Errorf("QueueLen after 3 sends = %d, want 3", seenLen)
	}
}

type queueLenProgram struct {
	Base
	seen *int
}

func (p *queueLenProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		nd.SendTag(1, 1)
		nd.SendTag(1, 2)
		nd.SendTag(1, 3)
		*p.seen = nd.QueueLen(1)
	}
}

// wakeProgram checks WakeAt fires at the requested round.
type wakeProgram struct {
	Base
	tickedAt *[]int
}

func (p *wakeProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		nd.WakeAt(3)
		nd.WakeAt(7)
		nd.WakeAt(7) // duplicate must not double-tick
	}
}

func (p *wakeProgram) Tick(nd *Node) {
	if nd.ID() == 0 {
		*p.tickedAt = append(*p.tickedAt, nd.Round())
	}
}

func TestWakeAt(t *testing.T) {
	net, err := NewNetwork(gen.Path(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int
	p := &wakeProgram{tickedAt: &ticks}
	if _, err := net.Run(progsFor(2, p), 0); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 || ticks[0] != 3 || ticks[1] != 7 {
		t.Errorf("ticks = %v, want [3 7]", ticks)
	}
}

// chatterProgram keeps sending forever; used to trigger the budget error.
type chatterProgram struct{ Base }

func (chatterProgram) Init(nd *Node) {
	if nd.ID() == 0 {
		nd.SendTag(1, 0)
	}
}

func (chatterProgram) Deliver(nd *Node, d Delivery) {
	for _, u := range nd.Neighbors() {
		nd.SendTag(u, d.Msg.Tag+1)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	net, err := NewNetwork(gen.Path(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(progsFor(2, chatterProgram{}), 50); !errors.Is(err, ErrBudget) {
		t.Fatalf("Run error = %v, want ErrBudget", err)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	net, err := NewNetwork(gen.Path(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on send to non-neighbor")
		}
	}()
	_, _ = net.Run(progsFor(3, badSender{}), 0)
}

type badSender struct{ Base }

func (badSender) Init(nd *Node) {
	if nd.ID() == 0 {
		nd.SendTag(2, 1) // 0 and 2 are not adjacent on the path
	}
}

func TestCutMetering(t *testing.T) {
	g := gen.Path(4)
	net, err := NewNetwork(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	side := []bool{false, false, true, true} // cut between 1 and 2
	net.MeterCut(side)
	p := newFlood(4)
	if _, err := net.Run(progsFor(4, p), 0); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if s.CutWords == 0 {
		t.Error("flood must cross the metered cut")
	}
	if s.CutWords >= s.Words {
		t.Errorf("cut words %d should be a strict subset of total %d", s.CutWords, s.Words)
	}
}

func TestRoundsAccumulateAcrossRuns(t *testing.T) {
	net, err := NewNetwork(gen.Path(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(progsFor(6, newFlood(6)), 0); err != nil {
		t.Fatal(err)
	}
	r1 := net.Stats().Rounds
	if _, err := net.Run(progsFor(6, newFlood(6)), 0); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().Rounds; got != 2*r1 {
		t.Errorf("accumulated rounds = %d, want %d", got, 2*r1)
	}
	if net.Round() != 2*r1 {
		t.Errorf("Round() = %d, want %d", net.Round(), 2*r1)
	}
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	g, err := (gen.Random{N: 60, P: 0.08, Seed: 5}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel bool) ([]int, Stats) {
		net, err := NewNetwork(g, Options{Seed: 11, Parallel: parallel, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		p := newFlood(g.N())
		if _, err := net.Run(progsFor(g.N(), p), 0); err != nil {
			t.Fatal(err)
		}
		return p.heardAt, net.Stats()
	}
	seqHeard, seqStats := run(false)
	parHeard, parStats := run(true)
	for v := range seqHeard {
		if seqHeard[v] != parHeard[v] {
			t.Errorf("node %d: seq heard %d, parallel heard %d", v, seqHeard[v], parHeard[v])
		}
	}
	if seqStats != parStats {
		t.Errorf("stats differ: seq %+v parallel %+v", seqStats, parStats)
	}
}

func TestChargeRounds(t *testing.T) {
	net, err := NewNetwork(gen.Path(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	net.ChargeRounds(17)
	if net.Stats().Rounds != 17 || net.Round() != 17 {
		t.Errorf("ChargeRounds: stats %+v round %d", net.Stats(), net.Round())
	}
}

func TestMsgSize(t *testing.T) {
	if got := (Msg{Tag: 1}).Size(); got != 1 {
		t.Errorf("empty msg size = %d, want 1", got)
	}
	if got := (Msg{Tag: 1, Words: make([]int64, 4)}).Size(); got != 5 {
		t.Errorf("4-word msg size = %d, want 5", got)
	}
}

func TestDeterminismAcrossRunsSameSeed(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.1, Seed: 9}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	var prev Stats
	for i := 0; i < 3; i++ {
		net, err := NewNetwork(g, Options{Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		p := newFlood(g.N())
		if _, err := net.Run(progsFor(g.N(), p), 0); err != nil {
			t.Fatal(err)
		}
		if i > 0 && net.Stats() != prev {
			t.Fatalf("run %d stats %+v differ from %+v", i, net.Stats(), prev)
		}
		prev = net.Stats()
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	net, err := NewNetwork(gen.Path(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{mask: AllEvents}
	net.SetObserver(rec)
	p := newFlood(5)
	if _, err := net.Run(progsFor(5, p), 0); err != nil {
		t.Fatal(err)
	}
	s := net.Stats()
	if rec.counts[KindMessage] != s.Messages {
		t.Errorf("observer saw %d messages, stats say %d", rec.counts[KindMessage], s.Messages)
	}
	if rec.counts[KindRoundStart] != s.Rounds || rec.rounds != s.Rounds {
		t.Errorf("observer saw %d executed rounds (%d with gaps), stats say %d",
			rec.counts[KindRoundStart], rec.rounds, s.Rounds)
	}
	if rec.perTag[1] != s.Messages {
		t.Errorf("per-tag count %d, want %d", rec.perTag[1], s.Messages)
	}
}

func TestTraceWriter(t *testing.T) {
	net, err := NewNetwork(gen.Path(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	tw := &TraceWriter{W: &buf, MaxMessages: 2}
	net.SetObserver(tw)
	p := newFlood(4)
	if _, err := net.Run(progsFor(4, p), 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "r=1 0->1 tag=1 size=1") {
		t.Errorf("trace missing first delivery:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Errorf("MaxMessages=2 should cap output at 2 lines plus the suppression line:\n%s", out)
	}
	if tw.Suppressed() == 0 {
		t.Error("suppressed counter should be positive")
	}
	if !strings.Contains(out, fmt.Sprintf("... %d messages suppressed", tw.Suppressed())) {
		t.Errorf("run end should flush the suppression accounting:\n%s", out)
	}
	net.SetObserver(nil) // removal must not panic on next run
	if _, err := net.Run(progsFor(4, newFlood(4)), 0); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSingleWorker(t *testing.T) {
	g, err := (gen.Random{N: 30, P: 0.1, Seed: 2}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(g, Options{Seed: 9, Parallel: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := newFlood(g.N())
	if _, err := net.Run(progsFor(g.N(), p), 0); err != nil {
		t.Fatal(err)
	}
	for v := range p.heardAt {
		if p.heardAt[v] < 0 {
			t.Fatalf("node %d never heard the flood", v)
		}
	}
}

func TestIdleProgramsQuiesceImmediately(t *testing.T) {
	net, err := NewNetwork(gen.Path(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := net.Run(progsFor(5, Base{}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Errorf("idle programs consumed %d rounds, want 0", rounds)
	}
}
