package congest

import (
	"errors"
	"math/rand"
	"testing"

	"congestmwc/internal/gen"
)

// TestCalendar exercises the wake-up calendar directly: rounds come out in
// ascending order regardless of insertion order, buckets accumulate nodes,
// and take only answers for the exact head round.
func TestCalendar(t *testing.T) {
	c := newCalendar()
	if !c.empty() || c.next() != never {
		t.Fatalf("fresh calendar: empty=%v next=%d", c.empty(), c.next())
	}
	rng := rand.New(rand.NewSource(7))
	want := make(map[int][]int)
	for i := 0; i < 500; i++ {
		r, v := 1+rng.Intn(100), rng.Intn(10)
		c.schedule(r, v)
		want[r] = append(want[r], v)
	}
	if c.take(0) != nil {
		t.Fatalf("take(0) on head %d returned a bucket", c.next())
	}
	prev := 0
	for !c.empty() {
		r := c.next()
		if r <= prev {
			t.Fatalf("rounds out of order: %d after %d", r, prev)
		}
		if c.take(r-1) != nil {
			t.Fatalf("take(%d) answered for head %d", r-1, r)
		}
		b := c.take(r)
		if len(b) != len(want[r]) {
			t.Fatalf("round %d: bucket %v, want %d nodes", r, b, len(want[r]))
		}
		delete(want, r)
		c.recycle(b)
		prev = r
	}
	if len(want) != 0 {
		t.Fatalf("calendar drained but %d rounds unserved", len(want))
	}
}

// sleeperProgram idles for long wake-up gaps and then floods one token —
// the shape (long silences punctuated by bursts) that round skipping is
// for. Node 0 wakes at rounds stride, 2*stride, ..., bursts*stride; each
// wake-up floods a burst token that every node relays exactly once.
type sleeperProgram struct {
	stride, bursts int
	heard          []int // total deliveries per node (shared, distinct indices)

	next int            // node 0 only: next burst to emit
	seen map[int64]bool // node-local: bursts already relayed
}

func (p *sleeperProgram) Init(nd *Node) {
	p.seen = make(map[int64]bool)
	if nd.ID() == 0 {
		p.next = 1
		nd.WakeAt(p.stride)
	}
}

func (p *sleeperProgram) Deliver(nd *Node, d Delivery) {
	p.heard[nd.ID()]++
	if b := d.Msg.Tag; !p.seen[b] {
		p.seen[b] = true
		for _, u := range nd.Neighbors() {
			if u != d.From {
				nd.SendTag(u, b)
			}
		}
	}
}

func (p *sleeperProgram) Tick(nd *Node) {
	if nd.ID() != 0 || p.next > p.bursts || nd.Round() != p.next*p.stride {
		return
	}
	b := int64(p.next)
	p.seen[b] = true
	for _, u := range nd.Neighbors() {
		nd.SendTag(u, b)
	}
	p.next++
	if p.next <= p.bursts {
		nd.WakeAt(p.next * p.stride)
	}
}

// runSleeper runs the sleeper workload on a path and returns the network
// stats plus the per-node delivery counts.
func runSleeper(t *testing.T, opts Options) (Stats, []int, int) {
	t.Helper()
	const n, stride, bursts = 9, 1000, 3
	g := gen.Ring(n, false, false, 1)
	net, err := NewNetwork(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	heard := make([]int, n)
	progs := make([]Program, n)
	for v := range progs {
		progs[v] = &sleeperProgram{stride: stride, bursts: bursts, heard: heard}
	}
	rounds, err := net.Run(progs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net.Stats(), heard, rounds
}

// TestRoundSkippingMatchesStepwise is the scheduler's core equivalence
// claim on a gap-heavy workload: event-driven round skipping and stepwise
// iteration produce identical Stats, round counts and algorithm outputs,
// on both engines.
func TestRoundSkippingMatchesStepwise(t *testing.T) {
	baseStats, baseHeard, baseRounds := runSleeper(t, Options{Seed: 3, Stepwise: true})
	if baseStats.Rounds < 3000 {
		t.Fatalf("workload not gap-heavy: only %d rounds", baseStats.Rounds)
	}
	for _, parallel := range []bool{false, true} {
		for _, stepwise := range []bool{false, true} {
			if stepwise && !parallel {
				continue // the baseline itself
			}
			s, h, r := runSleeper(t, Options{Seed: 3, Stepwise: stepwise, Parallel: parallel})
			if s != baseStats || r != baseRounds {
				t.Errorf("parallel=%v stepwise=%v: stats %+v rounds %d, want %+v rounds %d",
					parallel, stepwise, s, r, baseStats, baseRounds)
			}
			for v := range h {
				if h[v] != baseHeard[v] {
					t.Errorf("parallel=%v stepwise=%v: node %d heard %d, want %d",
						parallel, stepwise, v, h[v], baseHeard[v])
				}
			}
		}
	}
}

// TestGapSemantics pins the observer contract of round skipping: round
// start and end events fire for executed rounds only, RoundStats.Gap
// accounts for every skipped round (summing 1+Gap reproduces Stats.Rounds),
// and under Stepwise every round executes with Gap == 0.
func TestGapSemantics(t *testing.T) {
	const wake = 5000
	run := func(stepwise bool) (*recorder, Stats) {
		g := gen.Ring(4, false, false, 1)
		net, err := NewNetwork(g, Options{Stepwise: stepwise})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{mask: MaskOf(KindRoundStart, KindRoundEnd)}
		net.SetObserver(rec)
		done := false
		progs := progsFor(4, Funcs{
			OnInit: func(nd *Node) {
				if nd.ID() == 0 {
					nd.WakeAt(wake)
				}
			},
			OnTick: func(nd *Node) {
				if nd.ID() == 0 && !done {
					done = true
					nd.SendTag(nd.Neighbors()[0], 1)
				}
			},
		})
		if _, err := net.Run(progs, 0); err != nil {
			t.Fatal(err)
		}
		return rec, net.Stats()
	}

	rec, s := run(false)
	if s.Rounds != wake+1 {
		t.Fatalf("skipping: %d rounds, want %d", s.Rounds, wake+1)
	}
	if rec.rounds != s.Rounds {
		t.Errorf("skipping: sum of 1+Gap = %d, want Stats.Rounds %d", rec.rounds, s.Rounds)
	}
	if rec.counts[KindRoundStart] != 2 {
		t.Errorf("skipping: %d executed rounds, want 2 (wake + delivery)", rec.counts[KindRoundStart])
	}
	if rec.maxGap != wake-1 {
		t.Errorf("skipping: max gap %d, want %d", rec.maxGap, wake-1)
	}

	recS, sS := run(true)
	if sS != s {
		t.Errorf("stepwise stats %+v != skipping stats %+v", sS, s)
	}
	if recS.counts[KindRoundStart] != sS.Rounds || recS.maxGap != 0 {
		t.Errorf("stepwise: executed %d (want %d), max gap %d (want 0)",
			recS.counts[KindRoundStart], sS.Rounds, recS.maxGap)
	}
}

// TestBudgetEquivalence pins the budget contract under skipping: when the
// next event lies beyond the budget the run still consumes exactly the
// budgeted number of rounds before returning ErrBudget, as stepwise
// iteration would.
func TestBudgetEquivalence(t *testing.T) {
	for _, stepwise := range []bool{false, true} {
		g := gen.Ring(3, false, false, 1)
		net, err := NewNetwork(g, Options{Stepwise: stepwise})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{mask: MaskOf(KindRoundStart, KindRoundEnd)}
		net.SetObserver(rec)
		progs := progsFor(3, Funcs{
			OnInit: func(nd *Node) { nd.WakeAt(1_000_000) },
		})
		const budget = 64
		rounds, err := net.Run(progs, budget)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("stepwise=%v: err = %v, want ErrBudget", stepwise, err)
		}
		if rounds != budget || net.Stats().Rounds != budget {
			t.Errorf("stepwise=%v: consumed %d rounds (stats %d), want %d",
				stepwise, rounds, net.Stats().Rounds, budget)
		}
		if rec.rounds != budget {
			t.Errorf("stepwise=%v: observer accounted %d rounds, want %d",
				stepwise, rec.rounds, budget)
		}
	}
}
