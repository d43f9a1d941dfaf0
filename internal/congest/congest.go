// Package congest simulates the CONGEST model of distributed computing
// (Peleg 2000; Section 1.1 of the paper): a synchronous network of n nodes
// in which, per round, each node may send one Theta(log n)-bit message to
// each neighbour. Nodes have unbounded local computation; complexity is the
// number of rounds until termination.
//
// # Messages and bandwidth
//
// A message is a tag plus a bounded slice of 64-bit words; its size is
// 1+len(Words) words. The per-round bandwidth of each directed link is B
// words (Options.Bandwidth, default 4 — one Theta(log n + log W)-bit payload
// plus its tag). Messages larger than B words are legal: the transport
// fragments them, occupying the link for ceil(size/B) consecutive rounds.
// This matches the paper's accounting, e.g. the O(log n)-word Q(v) message
// of Algorithm 3 costs O(log n) rounds to cross an edge.
//
// Links are FIFO: pipelined protocols (broadcast of M values in O(M+D),
// multi-source BFS in O(k+h)) get their pipelining behaviour directly from
// the transport queue.
//
// Message payloads are copied into per-link arenas on Send and into
// per-receiver inbox arenas on delivery, so the steady-state delivery path
// performs no heap allocation; the price is a lifetime contract — a
// delivered Msg.Words is valid only inside the Deliver (or
// Observer.Observe) invocation that receives it, and must be copied if
// retained (see Msg).
//
// # Node programs
//
// Distributed algorithms are written as one Program per node. A Program
// sees only node-local information through the Node handle: its own ID, n,
// its incident arcs of the input graph, delivered messages, a per-node PRNG,
// and the current round number (global round numbering is standard in the
// synchronous model). Programs are driven by Deliver (once per received
// message) and Tick (once per round in which the node is active). A node is
// active in a round when it received at least one message or had scheduled a
// wake-up via WakeAt.
//
// # Layering
//
// The simulator core is split into three layers behind the one Network
// facade:
//
//   - the transport (transport.go): per-link FIFO queues, fragmentation
//     credit, cut metering, and the sorted set of links with pending
//     traffic;
//   - the scheduler (sched.go): a round calendar over pending wake-up
//     rounds plus the transport's next-delivery round, which lets the run
//     loop jump directly to the next round in which anything can happen,
//     charging the skipped gap to Stats.Rounds in one step (see "Round
//     skipping" below);
//   - the execution engines (engine.go, engine_seq.go, engine_par.go): an
//     engine interface with a deterministic sequential implementation and a
//     concurrent one that executes node handlers on worker goroutines with
//     a barrier per round, selected by Options.Parallel. Handlers mutate
//     only node-local state (their own program state, PRNG and outgoing
//     link queues), so both engines deliver messages in the same canonical
//     order (ascending sender ID, FIFO within a link) and produce identical
//     results and round counts.
//
// # Round skipping
//
// Rounds in which no link can complete a delivery and no wake-up fires are
// empty: no handler runs and no statistic other than Stats.Rounds changes.
// Such rounds are common under the paper's scaling and stretching
// reductions (Section 5), where simulated traversal times are proportional
// to stretched distances. The scheduler advances the clock over an empty
// gap in one step: round counts, delivery rounds, message order, Stats and
// algorithm outputs are bit-identical to iterating every round (asserted by
// the equivalence tests against Options.Stepwise), but wall clock is
// proportional to events rather than elapsed rounds. Observers see executed
// rounds only; the length of the preceding skipped gap is reported in
// RoundStats.Gap.
//
// # Observation
//
// One Observer receives the whole event stream as kind-tagged Events (see
// Kind): run and phase brackets, round starts, message deliveries and
// per-round totals. The observer's mask of wanted kinds is read once, in
// SetObserver, and each engine hook costs one mask test when unwanted.
package congest

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"

	"congestmwc/internal/graph"
)

// Errors returned by the network. ErrBudget signals that an algorithm did
// not reach quiescence within its round budget (an algorithm bug or an
// undersized budget, never normal operation). ErrCanceled signals that the
// context installed via SetContext was done; the returned error also wraps
// the context's own error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two causes.
var (
	ErrDisconnected = errors.New("congest: communication graph is not connected")
	ErrBudget       = errors.New("congest: round budget exhausted before quiescence")
	ErrCanceled     = errors.New("congest: run canceled")
)

// Msg is one CONGEST message: an algorithm-defined tag plus payload words.
//
// On Send the payload is copied into the sending link's arena, so the
// sender keeps ownership of Words. On delivery, the payload is copied again
// into the receiving node's inbox arena and Words is a view into it: valid
// only for the duration of the Deliver invocation (and of the synchronous
// Observer.Observe call for its KindMessage event). Handlers that retain a
// payload beyond the handler must copy it.
type Msg struct {
	Tag   int64
	Words []int64
}

// Size returns the size of the message in words (1 for the tag plus the
// payload length).
func (m Msg) Size() int { return 1 + len(m.Words) }

// Delivery is a received message together with its sender. Msg.Words is
// only valid for the duration of the Deliver call that receives it; see
// Msg.
type Delivery struct {
	From int
	Msg  Msg
}

// Program is the per-node logic of a distributed algorithm.
type Program interface {
	// Init runs once before the first round. It may send messages and
	// schedule wake-ups.
	Init(nd *Node)
	// Deliver runs once per message delivered to the node this round, in
	// canonical order (ascending sender ID, FIFO per link), before Tick.
	Deliver(nd *Node, d Delivery)
	// Tick runs once per round in which the node is active (it received a
	// message or had a wake-up scheduled for this round), after all
	// deliveries of the round.
	Tick(nd *Node)
}

// Options configures a Network.
type Options struct {
	// Bandwidth is the per-round word capacity of each directed link.
	// Defaults to 4 — one tag plus a constant number of payload words, the
	// concrete instantiation of "one Theta(log n)-bit message per edge per
	// round" (a (source, distance) pair is 2 log n bits).
	Bandwidth int
	// Seed drives every PRNG in the network. Node v's PRNG is seeded with a
	// value derived from Seed and v; algorithms may also use Seed directly
	// as shared randomness (permitted by the model).
	Seed int64
	// Parallel selects the concurrent engine (worker goroutines + round
	// barrier) instead of the sequential loop.
	Parallel bool
	// Workers bounds the concurrent engine's worker count; defaults to
	// GOMAXPROCS.
	Workers int
	// Stepwise disables event-driven round skipping: the run loop iterates
	// every synchronous round one by one, including empty ones. This is a
	// debug/reference mode — results, Stats and round counts are identical
	// either way (asserted by the scheduler equivalence tests) — but wall
	// clock becomes proportional to elapsed rounds instead of events.
	Stepwise bool
}

// Stats accumulates cost measures across all Run calls on a Network.
type Stats struct {
	Rounds      int // synchronous rounds elapsed (including skipped gaps)
	Messages    int // messages delivered
	Words       int // words delivered
	CutWords    int // words that crossed the metered cut (0 if no cut set)
	Activations int // node activations (instrumentation)
}

// Network is a CONGEST network over the communication graph of g. It can
// run several Programs in sequence (the phases of a composite algorithm),
// accumulating Stats across runs. It is a facade over the three layers of
// the simulator core: the transport, the round calendar and the execution
// engine.
type Network struct {
	g     *graph.Graph
	opts  Options
	nodes []*nodeState
	stats Stats
	now   int

	tr  transport // flat link arena + pending set + delivery schedule
	cal calendar  // pending wake-up rounds
	eng engine    // handler execution strategy (sequential / worker pool)

	// linkOff is the CSR offset array over the transport's link arena:
	// node v's outgoing links are tr.links[linkOff[v]:linkOff[v+1]], entry i
	// being the link to the i-th sorted communication neighbour. Link IDs
	// are therefore globally sorted by (owner, to) — canonical delivery
	// order is ascending ID order.
	linkOff []int32

	all       []int          // the identity permutation [0..n), for Init phases
	activeBuf []int          // scratch: the round's receivers and woken nodes
	scratch   []roundScratch // per-worker handler outboxes, merged by afterHandlers
	epoch     []int64        // per-node stamp deduplicating the active list (see runRound)
	epochN    int64

	ctx  context.Context // abort signal installed via SetContext (may be nil)
	done <-chan struct{} // ctx.Done(), cached; nil when no context is set

	obs    Observer
	want   Mask     // obs.Wants(), read once in SetObserver; 0 without an observer
	ev     Event    // the one Event value every dispatch reuses
	phases []string // stack of open phase names (BeginPhase/EndPhase)
}

// NewNetwork validates connectivity and builds the network.
func NewNetwork(g *graph.Graph, opts Options) (*Network, error) {
	if !g.ConnectedComm() {
		return nil, ErrDisconnected
	}
	if opts.Bandwidth <= 0 {
		opts.Bandwidth = 4
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	net := &Network{
		g:       g,
		opts:    opts,
		nodes:   make([]*nodeState, n),
		tr:      newTransport(opts.Bandwidth),
		cal:     newCalendar(),
		all:     make([]int, n),
		linkOff: make([]int32, n+1),
	}
	scratches := 1
	if opts.Parallel {
		net.eng = &parEngine{workers: workers}
		scratches = workers
	} else {
		net.eng = seqEngine{}
	}
	net.scratch = make([]roundScratch, scratches)
	net.epoch = make([]int64, n)
	// Pass 1: per-node sorted distinct neighbours (Comm rows are sorted by
	// destination, so deduplication is adjacent) and the link-CSR offsets.
	neighbors := make([][]int, n)
	total := 0
	for v := 0; v < n; v++ {
		net.all[v] = v
		comm := g.Comm(v)
		nbrs := make([]int, 0, len(comm))
		last := -1
		for _, a := range comm {
			if a.To != last {
				nbrs = append(nbrs, a.To)
				last = a.To
			}
		}
		neighbors[v] = nbrs
		net.linkOff[v] = int32(total)
		total += len(nbrs)
	}
	net.linkOff[n] = int32(total)
	// Pass 2: the flat link arena (IDs in ascending (owner, to) order) and
	// the per-node state, including the reusable handler-facing Node.
	net.tr.links = make([]link, total)
	for v := 0; v < n; v++ {
		for i, u := range neighbors[v] {
			net.tr.links[net.linkOff[v]+int32(i)] = link{owner: int32(v), to: int32(u)}
		}
		st := &nodeState{
			neighbors: neighbors[v],
			rng:       rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(v))),
		}
		st.node = Node{net: net, id: v, st: st}
		net.nodes[v] = st
	}
	return net, nil
}

// SetContext installs ctx as the abort signal for subsequent Run calls
// (nil removes it). Once ctx is done, an in-flight Run stops within one
// executed round and returns an error wrapping both ErrCanceled and
// ctx.Err(); Stats then reflect only the work actually executed. A canceled
// network may hold undelivered link traffic and pending wake-ups, so it
// must not be reused for further runs.
func (net *Network) SetContext(ctx context.Context) {
	if ctx == nil {
		net.ctx, net.done = nil, nil
		return
	}
	net.ctx, net.done = ctx, ctx.Done()
}

// canceled reports whether the installed abort context is done. It is
// called at round boundaries by the run loop and between handler batches by
// both engines; the channel select is safe from worker goroutines.
func (net *Network) canceled() bool {
	if net.done == nil {
		return false
	}
	select {
	case <-net.done:
		return true
	default:
		return false
	}
}

// Graph returns the input graph the network was built from.
func (net *Network) Graph() *graph.Graph { return net.g }

// Options returns the options the network was built with.
func (net *Network) Options() Options { return net.opts }

// Stats returns the accumulated statistics.
func (net *Network) Stats() Stats { return net.stats }

// Round returns the current global round number.
func (net *Network) Round() int { return net.now }

// ChargeRounds adds extra rounds to the statistics without running anything.
// Composite algorithms use it to account for costs that the orchestration
// performs via global knowledge that a real deployment would obtain with a
// known-cost primitive (this repository uses it only in documented places).
func (net *Network) ChargeRounds(r int) {
	net.now += r
	net.stats.Rounds += r
}

// MeterCut marks the cut to meter: side[v] gives v's side; every word
// delivered between nodes on different sides increments Stats.CutWords.
// Pass nil to stop metering.
func (net *Network) MeterCut(side []bool) {
	for i := range net.tr.links {
		l := &net.tr.links[i]
		l.cut = side != nil && side[l.owner] != side[l.to]
	}
}

// sortInts sorts a deduplicated active list in place. Active lists are
// usually small (the round's receivers), where insertion sort wins over the
// generic sort's partitioning machinery; large lists fall through to the
// standard sort.
func sortInts(s []int) {
	if len(s) > 48 {
		sort.Ints(s)
		return
	}
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}
