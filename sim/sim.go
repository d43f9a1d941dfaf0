// Package sim exposes the CONGEST-model simulator that powers congestmwc,
// so downstream users can write and cost their own distributed algorithms
// against the same substrate the paper's algorithms run on.
//
// A network is built from a congestmwc graph; algorithms are one Program
// per node, driven by Init / Deliver / Tick handlers that see only
// node-local state. Per round, each link carries Bandwidth words (default
// 4, the concrete stand-in for one Theta(log n)-bit message); larger
// messages fragment and honestly occupy their link for multiple rounds;
// links are FIFO, so pipelined protocols get their textbook round counts.
// Run executes to quiescence and returns the rounds consumed — the CONGEST
// complexity measure.
//
// See docs/TUTORIAL.md for a worked example, and package proto-level
// building blocks via the congestmwc top-level functions.
package sim

import (
	"fmt"

	"congestmwc"
	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
	"congestmwc/internal/obs"
)

// Core simulator types, shared with the algorithms in this module.
type (
	// Program is the per-node logic of a distributed algorithm.
	Program = congest.Program
	// Node is the node-local view handed to Program handlers.
	Node = congest.Node
	// Msg is one CONGEST message: a tag plus payload words.
	Msg = congest.Msg
	// Delivery is a received message together with its sender.
	Delivery = congest.Delivery
	// Base is a Program with no-op handlers, for embedding.
	Base = congest.Base
	// Funcs adapts plain functions to the Program interface.
	Funcs = congest.Funcs
	// Stats accumulates rounds, messages and words across runs.
	Stats = congest.Stats
	// Observer receives the Events whose kinds are in its Wants mask.
	Observer = congest.Observer
	// Event is one kind-tagged simulation event; observers must not keep
	// the pointer past Observe.
	Event = congest.Event
	// Kind tags an Event; Mask is a set of kinds.
	Kind = congest.Kind
	Mask = congest.Mask
	// RoundStats are one round's totals, carried by KindRoundEnd events.
	RoundStats = congest.RoundStats
	// TraceWriter logs deliveries as compact text.
	TraceWriter = congest.TraceWriter
	// Collector records per-round series, per-tag/per-link totals and
	// phase spans, and exports them as JSON/CSV (see docs/OBSERVABILITY.md).
	Collector = obs.Collector
	// Summary is a Collector's machine-readable digest.
	Summary = obs.Summary
	// TraceJSONL streams every simulation event as JSON lines.
	TraceJSONL = obs.JSONL
)

// Event kinds (see the congest package for when each fires) and the mask
// of all of them.
const (
	KindRunStart   = congest.KindRunStart
	KindRunEnd     = congest.KindRunEnd
	KindPhaseBegin = congest.KindPhaseBegin
	KindPhaseEnd   = congest.KindPhaseEnd
	KindRoundStart = congest.KindRoundStart
	KindMessage    = congest.KindMessage
	KindRoundEnd   = congest.KindRoundEnd
	AllEvents      = congest.AllEvents
)

// MaskOf returns the mask holding exactly the given kinds.
func MaskOf(kinds ...Kind) Mask { return congest.MaskOf(kinds...) }

// Multi combines observers into one, forwarding each event to the members
// that want its kind.
func Multi(obs ...Observer) Observer { return congest.Multi(obs...) }

// Network is a CONGEST network ready to run Programs.
type Network struct {
	net *congest.Network
	n   int
}

// New builds a network over the communication graph of g (the undirected
// closure of its edges; it must be connected).
func New(g *congestmwc.Graph, opts congestmwc.Options) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	edges := g.Edges()
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		ge[i] = graph.Edge{From: e.From, To: e.To, Weight: e.Weight}
	}
	inner, err := graph.Build(g.N(), ge, graph.Options{
		Directed: g.Class() == congestmwc.Directed || g.Class() == congestmwc.DirectedWeighted,
		Weighted: g.Class() == congestmwc.UndirectedWeighted || g.Class() == congestmwc.DirectedWeighted,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	net, err := congest.NewNetwork(inner, congest.Options{
		Bandwidth: opts.Bandwidth,
		Seed:      opts.Seed,
		Parallel:  opts.Parallel,
		Stepwise:  opts.Stepwise,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Network{net: net, n: g.N()}, nil
}

// Run executes one Program per node until quiescence (no queued traffic,
// no pending wake-ups) and returns the rounds consumed. Call it repeatedly
// to sequence the phases of a composite algorithm; statistics accumulate.
func (nw *Network) Run(progs []Program) (int, error) {
	rounds, err := nw.net.Run(progs, 0)
	if err != nil {
		return rounds, fmt.Errorf("sim: %w", err)
	}
	return rounds, nil
}

// RunUniform runs the same Program value on every node (the Program must
// then key its state by nd.ID(), as the shared-slice pattern in
// docs/TUTORIAL.md does).
func (nw *Network) RunUniform(p Program) (int, error) {
	progs := make([]Program, nw.n)
	for i := range progs {
		progs[i] = p
	}
	return nw.Run(progs)
}

// Stats returns the accumulated cost counters.
func (nw *Network) Stats() Stats { return nw.net.Stats() }

// Round returns the current global round number.
func (nw *Network) Round() int { return nw.net.Round() }

// SetObserver installs an event observer (nil removes it).
func (nw *Network) SetObserver(obs Observer) { nw.net.SetObserver(obs) }

// BeginPhase opens a named phase span; until the matching EndPhase,
// observers attribute rounds and traffic to it. Phases nest (the span
// path is the "/"-joined stack of open names). Call it around the Run
// invocations that make up one stage of a composite algorithm.
func (nw *Network) BeginPhase(name string) { nw.net.BeginPhase(name) }

// EndPhase closes the innermost open phase span.
func (nw *Network) EndPhase() { nw.net.EndPhase() }
