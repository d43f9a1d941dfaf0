package obs

import (
	"sync"
	"sync/atomic"

	"congestmwc/internal/congest"
)

// Event types published by a Streamer. The jobs layer additionally
// publishes EventState transitions through Streamer.Publish, so one
// subscription carries a job's whole lifecycle interleaved with its
// simulation progress.
const (
	// EventRound carries one executed round's RoundSample.
	EventRound = "round"
	// EventPhaseBegin / EventPhaseEnd bracket a named phase span.
	EventPhaseBegin = "phase_begin"
	EventPhaseEnd   = "phase_end"
	// EventRunStart / EventRunEnd bracket one Network.Run call.
	EventRunStart = "run_start"
	EventRunEnd   = "run_end"
	// EventState is reserved for callers of Publish (the jobs layer uses
	// it for job state transitions); the Streamer itself never emits it.
	EventState = "state"
)

// Event is one element of a Streamer's broadcast stream, serialisable as
// JSON: the envelope ServeSSE writes on the daemon's events endpoints (see
// docs/OBSERVABILITY.md). It adds the Seq, State and Error fields the
// simulator's congest.Event does not know.
type Event struct {
	// Seq numbers events 1,2,3,… in publication order. Subscribers can
	// detect drops (and SSE clients can resume-point) from gaps.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// Round is the simulated round the event refers to.
	Round int `json:"round"`
	// Phase is the "/"-joined phase path (phase events only).
	Phase string `json:"phase,omitempty"`
	// Sample is the executed round's stats (EventRound only). Its Span is
	// 1 + the skipped gap preceding the round, so spans tile the run.
	Sample *RoundSample `json:"sample,omitempty"`
	// State and Error are caller-defined (EventState): the jobs layer
	// records job lifecycle transitions and the terminal error here.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// Streamer is a bounded broadcast hub for live observation: an observer of
// round ends, phases and runs (it declines per-message events) that keeps
// the most recent events in a fixed-size ring buffer and fans every event
// out to any number of subscribers. Install it next to a Collector with
// congest.Multi — the collector keeps the complete record, the streamer
// serves live tails.
//
// Publication never blocks and never allocates per subscriber: a
// subscriber that falls behind its channel buffer loses the OLDEST
// undelivered events first (drop-oldest backpressure), with the loss
// counted on the subscription and visible as Seq gaps. Observed events
// arrive from the engine's single-threaded sections, but Subscribe, Close
// and Publish may be called from any goroutine.
type Streamer struct {
	mu     sync.Mutex
	ring   []Event // fixed capacity once allocated
	start  int     // index of the oldest buffered event
	count  int     // buffered events
	seq    uint64
	subs   map[*Subscription]struct{}
	closed bool
}

var _ congest.Observer = (*Streamer)(nil)

// DefaultRing is the ring capacity NewStreamer uses for size <= 0.
const DefaultRing = 256

// NewStreamer builds a hub buffering the most recent size events
// (DefaultRing for size <= 0).
func NewStreamer(size int) *Streamer {
	if size <= 0 {
		size = DefaultRing
	}
	return &Streamer{
		ring: make([]Event, 0, size),
		subs: make(map[*Subscription]struct{}),
	}
}

// Subscription is one subscriber's view of a Streamer: the buffered events
// present at subscription time (replayed first), then the live stream. The
// channel closes when the streamer closes or the subscription is Closed.
type Subscription struct {
	s       *Streamer
	ch      chan Event
	dropped atomic.Uint64
}

// Subscribe registers a subscriber with the given channel buffer (minimum
// the ring size, so the replay always fits). The returned subscription's
// channel first replays the buffered ring, then delivers live events.
// Subscribing to a closed streamer still replays the ring; the channel is
// then already closed — which is how late watchers of a finished job see
// its final events and an immediate end-of-stream.
func (s *Streamer) Subscribe(buf int) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf < cap(s.ring) {
		buf = cap(s.ring)
	}
	sub := &Subscription{s: s, ch: make(chan Event, buf)}
	for i := 0; i < s.count; i++ {
		sub.ch <- s.ring[(s.start+i)%cap(s.ring)]
	}
	if s.closed {
		close(sub.ch)
		return sub
	}
	s.subs[sub] = struct{}{}
	return sub
}

// Events returns the subscription's receive channel.
func (sub *Subscription) Events() <-chan Event { return sub.ch }

// Dropped reports how many events this subscription lost to drop-oldest
// backpressure.
func (sub *Subscription) Dropped() uint64 { return sub.dropped.Load() }

// Close unregisters the subscription and closes its channel. It is safe to
// call more than once and after the streamer itself has closed.
func (sub *Subscription) Close() {
	sub.s.mu.Lock()
	if _, ok := sub.s.subs[sub]; ok {
		delete(sub.s.subs, sub)
		close(sub.ch)
	}
	sub.s.mu.Unlock()
}

// Publish injects an event into the stream: it is stamped with the next
// sequence number, buffered in the ring, and fanned out. Publishing to a
// closed streamer is a no-op. The events the Streamer observes go
// through Publish too, so caller events and simulation events share one
// total order.
func (s *Streamer) Publish(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.seq++
	ev.Seq = s.seq
	if s.count < cap(s.ring) {
		s.ring = append(s.ring, ev)
		s.count++
	} else {
		s.ring[s.start] = ev
		s.start = (s.start + 1) % cap(s.ring)
	}
	for sub := range s.subs {
		sub.send(ev)
	}
}

// send delivers one event without blocking: when the channel is full, the
// oldest undelivered event is discarded to make room. Caller holds s.mu,
// so publishers never race each other; the consumer may be receiving
// concurrently, which only makes room.
func (sub *Subscription) send(ev Event) {
	for {
		select {
		case sub.ch <- ev:
			return
		default:
		}
		select {
		case <-sub.ch:
			sub.dropped.Add(1)
		default:
		}
	}
}

// Close ends the stream: every subscription's channel is closed and
// further publications are dropped. The ring is retained, so late
// Subscribe calls still replay the final buffered events.
func (s *Streamer) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for sub := range s.subs {
			delete(s.subs, sub)
			close(sub.ch)
		}
	}
	s.mu.Unlock()
}

// Wants implements congest.Observer: the streamer carries round-granularity
// events only, so the engine skips the per-message dispatch entirely.
func (s *Streamer) Wants() congest.Mask {
	return congest.MaskOf(congest.KindRunStart, congest.KindRunEnd,
		congest.KindPhaseBegin, congest.KindPhaseEnd, congest.KindRoundEnd)
}

// Observe implements congest.Observer. Every executed round is published
// as an EventRound whose sample covers the round plus the gap the
// scheduler skipped before it, so the samples' spans tile the run.
func (s *Streamer) Observe(ev *congest.Event) {
	switch ev.Kind {
	case congest.KindRunStart:
		s.Publish(Event{Type: EventRunStart, Round: ev.Round})
	case congest.KindRunEnd:
		s.Publish(Event{Type: EventRunEnd, Round: ev.Round})
	case congest.KindPhaseBegin:
		s.Publish(Event{Type: EventPhaseBegin, Round: ev.Round, Phase: ev.Phase})
	case congest.KindPhaseEnd:
		s.Publish(Event{Type: EventPhaseEnd, Round: ev.Round, Phase: ev.Phase})
	case congest.KindRoundEnd:
		rs := &ev.Stats
		s.Publish(Event{
			Type:  EventRound,
			Round: ev.Round,
			Sample: &RoundSample{
				Round: ev.Round, Span: 1 + rs.Gap,
				Messages: rs.Messages, Words: rs.Words, CutWords: rs.CutWords,
				Active: rs.Active, MaxLinkWords: rs.MaxLinkWords, MaxQueueLen: rs.MaxQueueLen,
			},
		})
	}
}
