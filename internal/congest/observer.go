package congest

import "strings"

// Kind tags a simulation Event.
type Kind uint8

// Event kinds, in the order they nest: a run brackets rounds, phases
// bracket runs, and each executed round is a RoundStart, its Message
// deliveries, then a RoundEnd.
const (
	// KindRunStart / KindRunEnd bracket each Network.Run call. RunEnd
	// fires on quiescence, cancellation and budget exhaustion alike, so
	// buffering observers can flush.
	KindRunStart Kind = iota
	KindRunEnd
	// KindPhaseBegin / KindPhaseEnd are the spans opened and closed by
	// Network.BeginPhase / Network.EndPhase; Event.Phase carries the path.
	KindPhaseBegin
	KindPhaseEnd
	// KindRoundStart fires at the start of every executed round, before
	// deliveries. Empty rounds skipped by the event-driven scheduler fire
	// nothing; their count reaches KindRoundEnd as RoundStats.Gap.
	KindRoundStart
	// KindMessage fires for every delivered message (Event.From, To, Msg).
	KindMessage
	// KindRoundEnd fires once per executed round after all deliveries and
	// handler invocations, carrying the round's totals in Event.Stats.
	KindRoundEnd

	numKinds
)

// Mask is a set of event kinds.
type Mask uint8

// AllEvents is the mask of every kind.
const AllEvents Mask = 1<<numKinds - 1

// MaskOf returns the mask holding exactly the given kinds.
func MaskOf(kinds ...Kind) Mask {
	var m Mask
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// Has reports whether k is in the mask.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// Event is one simulation event. Only the fields of its Kind are set:
// Phase for phase events; From, To and Msg for KindMessage; Stats for
// KindRoundEnd. Round is the simulated round the event refers to.
//
// The network reuses one Event value for every dispatch, so an observer
// must not retain the pointer (or, for messages, Msg.Words) past its
// Observe call; copy what it needs.
type Event struct {
	Kind  Kind
	Round int
	// Phase is the "/"-joined stack of open phase names, innermost last.
	Phase    string
	From, To int
	Msg      Msg
	Stats    RoundStats
}

// Observer receives simulation events. Observe runs synchronously inside
// the round loop, so implementations must be fast; message events come
// from the single-threaded transmit phase, so no locking is needed even
// under the parallel engine, and both engines produce the identical event
// stream.
//
// Wants is read once, in SetObserver: the network dispatches only the
// kinds in the mask, so an observer that leaves out KindMessage costs
// nothing on the per-message hot path. Configure an observer before
// installing it; a mask that changes afterwards is not seen.
type Observer interface {
	Wants() Mask
	Observe(ev *Event)
}

// RoundStats are the totals of one synchronous round, carried by the
// KindRoundEnd event. They are per-round deltas, so collectors do not have
// to diff cumulative Stats themselves.
type RoundStats struct {
	// Messages and Words delivered this round.
	Messages int
	Words    int
	// CutWords delivered across the metered cut this round (0 without a cut).
	CutWords int
	// Active is the number of nodes activated this round.
	Active int
	// MaxLinkWords is the most words delivered over any single directed
	// link this round — the realized per-link congestion.
	MaxLinkWords int
	// MaxQueueLen is the longest link queue left after the round's
	// transmissions — the backlog pipelined protocols are working through.
	MaxQueueLen int
	// Gap is the number of empty rounds the event-driven scheduler skipped
	// immediately before this round — rounds in which no link could
	// complete a delivery and no wake-up fired, so no handler ran and no
	// statistic other than Stats.Rounds changed. This round therefore
	// accounts for Gap+1 of Stats.Rounds. Always 0 under Options.Stepwise.
	Gap int
}

// SetObserver installs an observer (nil removes it) and reads its mask.
func (net *Network) SetObserver(obs Observer) {
	net.obs, net.want = obs, 0
	if obs != nil {
		net.want = obs.Wants()
	}
}

// emit dispatches a run, round-start or phase event at the current round,
// if the observer wants its kind. The mask test inlines into the engine's
// hooks; only wanted events pay for the call.
func (net *Network) emit(k Kind) {
	if net.want.Has(k) {
		net.dispatch(k)
	}
}

func (net *Network) dispatch(k Kind) {
	net.ev = Event{Kind: k, Round: net.now}
	if k == KindPhaseBegin || k == KindPhaseEnd {
		net.ev.Phase = net.PhasePath()
	}
	net.obs.Observe(&net.ev)
}

// observeMessage dispatches the delivery of m over l; kept out of line so
// the transmit loop stays small.
func (net *Network) observeMessage(l *link, m Msg) {
	net.ev = Event{Kind: KindMessage, Round: net.now, From: int(l.owner), To: int(l.to), Msg: m}
	net.obs.Observe(&net.ev)
}

// BeginPhase opens a named phase span: until the matching EndPhase,
// observers attribute rounds and traffic to this span. Phases nest; the
// span's path is the "/"-joined stack of open names. Composite algorithms
// call BeginPhase/EndPhase around their sub-algorithm Run calls, so span
// boundaries always fall between rounds.
func (net *Network) BeginPhase(name string) {
	net.phases = append(net.phases, name)
	net.emit(KindPhaseBegin)
}

// EndPhase closes the innermost open phase span. It panics if no phase is
// open — mismatched Begin/End pairs are a programming error.
func (net *Network) EndPhase() {
	if len(net.phases) == 0 {
		panic("congest: EndPhase without matching BeginPhase")
	}
	net.emit(KindPhaseEnd)
	net.phases = net.phases[:len(net.phases)-1]
}

// PhasePath returns the "/"-joined stack of open phase names ("" when no
// phase is open).
func (net *Network) PhasePath() string { return strings.Join(net.phases, "/") }

// Multi combines observers into one that forwards each event to exactly
// the members whose mask holds its kind. Every member's mask is read once,
// here. Nil members are dropped; Multi returns nil for no observers and
// the sole observer itself for one.
func Multi(obs ...Observer) Observer {
	m := &multi{}
	for _, o := range obs {
		if o != nil {
			w := o.Wants()
			m.obs, m.want, m.all = append(m.obs, o), append(m.want, w), m.all|w
		}
	}
	switch len(m.obs) {
	case 0:
		return nil
	case 1:
		return m.obs[0]
	}
	return m
}

type multi struct {
	obs  []Observer
	want []Mask // want[i] is obs[i].Wants()
	all  Mask
}

func (m *multi) Wants() Mask { return m.all }

func (m *multi) Observe(ev *Event) {
	for i, o := range m.obs {
		if m.want[i].Has(ev.Kind) {
			o.Observe(ev)
		}
	}
}
