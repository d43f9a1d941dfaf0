// Package obs is the observability layer over the CONGEST simulator: a
// Collector observer that turns the engine's event stream into per-round
// time series, per-tag and per-link totals and a named phase-span table;
// structured exporters (JSON summary, CSV series, JSONL event trace); and
// wall-clock/CPU profiling helpers for comparing the sequential and
// parallel engines.
//
// The paper's results are cost claims — round counts like O~(sqrt(n)+D),
// the congestion behaviour of pipelined BFS, words across the Alice/Bob
// cut — so the harness, benchmarks and CLIs all consume this package to
// measure them per round and per algorithm phase rather than as one flat
// aggregate. See docs/OBSERVABILITY.md for the schema reference.
package obs

import (
	"math/rand"
	"time"

	"congestmwc/internal/congest"
)

// RoundSample is one bucket of the per-round time series: it covers Span
// consecutive rounds starting at Round. With decimation off
// (Collector.MaxSeries == 0) every executed round gets its own bucket
// (Span == 1), and each run of empty rounds skipped by the event-driven
// scheduler appears as one all-zero bucket spanning the gap — bucket spans
// always tile the simulated rounds exactly once. Under decimation adjacent
// buckets are merged pairwise, with counts summed and congestion figures
// maxed.
type RoundSample struct {
	Round        int   `json:"round"`
	Span         int   `json:"span"`
	Messages     int   `json:"messages"`
	Words        int   `json:"words"`
	CutWords     int   `json:"cutWords"`
	Active       int   `json:"active"`
	MaxLinkWords int   `json:"maxLinkWords"`
	MaxQueueLen  int   `json:"maxQueueLen"`
	WallNs       int64 `json:"wallNs,omitempty"`
}

// TagStat aggregates deliveries of one message tag.
type TagStat struct {
	Messages int `json:"messages"`
	Words    int `json:"words"`
}

// LinkKey identifies one directed link.
type LinkKey struct {
	From, To int
}

// LinkStat aggregates deliveries over one directed link.
type LinkStat struct {
	From     int `json:"from"`
	To       int `json:"to"`
	Messages int `json:"messages"`
	Words    int `json:"words"`
}

// PhaseSpan is one BeginPhase/EndPhase interval. Rounds and traffic are
// attributed exclusively to the innermost open span, so summing over all
// spans never double-counts nested phases; Path carries the nesting
// ("wmwc:short-cycles/level-3/dirmwc:sample-dist").
type PhaseSpan struct {
	Path       string `json:"path"`
	BeginRound int    `json:"beginRound"`
	EndRound   int    `json:"endRound"`
	Open       bool   `json:"open,omitempty"` // never closed (a bug or an aborted run)
	Rounds     int    `json:"rounds"`
	Messages   int    `json:"messages"`
	Words      int    `json:"words"`
	CutWords   int    `json:"cutWords"`
	WallNs     int64  `json:"wallNs,omitempty"`
}

// MsgEvent is one delivered message, as retained by the message reservoir.
type MsgEvent struct {
	Round int   `json:"round"`
	From  int   `json:"from"`
	To    int   `json:"to"`
	Tag   int64 `json:"tag"`
	Size  int   `json:"size"`
}

// Collector is a congest.Observer that records per-round metrics,
// per-tag/per-link totals and phase spans with O(1) work per event. The
// zero value records everything except wall clock; set the No* switches
// to shed cost, or Wall to time rounds. Install it with
// Network.SetObserver (use congest.Multi to combine it with a trace
// writer).
type Collector struct {
	// NoSeries disables the per-round time series.
	NoSeries bool
	// NoPerTag disables the per-tag totals.
	NoPerTag bool
	// NoPerLink disables the per-link totals.
	NoPerLink bool
	// Wall records wall-clock time per round (and per phase) — the engine
	// profile that makes the parallel engine's speedup measurable.
	Wall bool
	// MaxSeries bounds the series length for very long runs: when reached,
	// adjacent buckets are merged pairwise (Span doubles), keeping the
	// series shape at bounded memory. 0 = unbounded, every round kept.
	MaxSeries int
	// SampleMessages keeps a uniform reservoir sample of that many
	// delivered-message events (0 = none). The reservoir is deterministic:
	// it uses a fixed-seed PRNG, independent of the network seed.
	SampleMessages int

	// Rounds..CutWords are totals over everything observed.
	Rounds   int
	Messages int
	Words    int
	CutWords int
	// Activations counts node activations; Runs counts Run calls observed.
	Activations int
	Runs        int
	// PeakLinkWords / PeakQueueLen are the worst single-round congestion
	// figures seen on any link.
	PeakLinkWords int
	PeakQueueLen  int
	// WallNs is total observed wall-clock round time (Wall only).
	WallNs int64

	// Series is the per-round time series (nil when NoSeries).
	Series []RoundSample
	// PerTag maps message tag to its totals (nil when NoPerTag).
	PerTag map[int64]*TagStat
	// PerLink maps directed links to their totals (nil when NoPerLink).
	PerLink map[LinkKey]*LinkStat
	// Phases holds every span in begin order, including still-open ones.
	Phases []*PhaseSpan
	// Sampled is the message-event reservoir (nil unless SampleMessages).
	Sampled []MsgEvent

	open       []int // indices into Phases of currently-open spans
	msgCount   int   // messages offered to the reservoir
	rng        *rand.Rand
	pending    RoundSample // partially-filled series bucket under decimation
	pendingN   int         // rounds merged into pending so far
	stride     int         // rounds per bucket (doubles on decimation)
	roundStart time.Time
}

var _ congest.Observer = (*Collector)(nil)

// Wants implements congest.Observer. Message events are wanted only for
// per-tag or per-link recording or message sampling: otherwise everything
// the collector records arrives through the per-round deltas, so the
// engine skips the per-message dispatch entirely — this is what keeps the
// harness's lean meter within its overhead budget. Round starts are
// wanted only to time rounds (Wall). Configure the collector before
// SetObserver; the mask is read only there.
func (c *Collector) Wants() congest.Mask {
	m := congest.MaskOf(congest.KindRunStart, congest.KindRunEnd,
		congest.KindPhaseBegin, congest.KindPhaseEnd, congest.KindRoundEnd)
	if !c.NoPerTag || !c.NoPerLink || c.SampleMessages > 0 {
		m |= congest.MaskOf(congest.KindMessage)
	}
	if c.Wall {
		m |= congest.MaskOf(congest.KindRoundStart)
	}
	return m
}

// Observe implements congest.Observer.
func (c *Collector) Observe(ev *congest.Event) {
	switch ev.Kind {
	case congest.KindRunStart:
		c.Runs++
	case congest.KindRunEnd:
		c.flushPending()
	case congest.KindPhaseBegin:
		c.Phases = append(c.Phases, &PhaseSpan{Path: ev.Phase, BeginRound: ev.Round, EndRound: -1, Open: true})
		c.open = append(c.open, len(c.Phases)-1)
	case congest.KindPhaseEnd:
		if len(c.open) == 0 {
			return // EndPhase mismatches already panic in the network
		}
		sp := c.Phases[c.open[len(c.open)-1]]
		sp.EndRound = ev.Round
		sp.Open = false
		c.open = c.open[:len(c.open)-1]
	case congest.KindRoundStart: // wanted only under Wall
		c.roundStart = time.Now()
	case congest.KindMessage:
		c.message(ev)
	case congest.KindRoundEnd:
		c.roundEnd(ev.Round, ev.Stats)
	}
}

func (c *Collector) message(ev *congest.Event) {
	size := ev.Msg.Size()
	if !c.NoPerTag {
		if c.PerTag == nil {
			c.PerTag = make(map[int64]*TagStat)
		}
		ts := c.PerTag[ev.Msg.Tag]
		if ts == nil {
			ts = &TagStat{}
			c.PerTag[ev.Msg.Tag] = ts
		}
		ts.Messages++
		ts.Words += size
	}
	if !c.NoPerLink {
		if c.PerLink == nil {
			c.PerLink = make(map[LinkKey]*LinkStat)
		}
		key := LinkKey{From: ev.From, To: ev.To}
		ls := c.PerLink[key]
		if ls == nil {
			ls = &LinkStat{From: ev.From, To: ev.To}
			c.PerLink[key] = ls
		}
		ls.Messages++
		ls.Words += size
	}
	if c.SampleMessages > 0 {
		c.reservoir(MsgEvent{Round: ev.Round, From: ev.From, To: ev.To, Tag: ev.Msg.Tag, Size: size})
	}
}

// reservoir keeps a uniform sample of SampleMessages events (Vitter's
// algorithm R, deterministic seed).
func (c *Collector) reservoir(ev MsgEvent) {
	c.msgCount++
	if len(c.Sampled) < c.SampleMessages {
		c.Sampled = append(c.Sampled, ev)
		return
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	if j := c.rng.Intn(c.msgCount); j < c.SampleMessages {
		c.Sampled[j] = ev
	}
}

// roundEnd records one executed round: totals, phase attribution and the
// time series all key off the engine-computed per-round deltas.
// The round accounts for rs.Gap+1 rounds of the run — itself plus the
// empty rounds the event-driven scheduler skipped immediately before it —
// which keeps Rounds equal to the engine's Stats.Rounds (the conformance
// cross-check) and phase round totals exact.
func (c *Collector) roundEnd(round int, rs congest.RoundStats) {
	var wall int64
	if c.Wall {
		wall = time.Since(c.roundStart).Nanoseconds()
		c.WallNs += wall
	}
	c.Rounds += 1 + rs.Gap
	c.Messages += rs.Messages
	c.Words += rs.Words
	c.CutWords += rs.CutWords
	c.Activations += rs.Active
	if rs.MaxLinkWords > c.PeakLinkWords {
		c.PeakLinkWords = rs.MaxLinkWords
	}
	if rs.MaxQueueLen > c.PeakQueueLen {
		c.PeakQueueLen = rs.MaxQueueLen
	}
	if len(c.open) > 0 {
		sp := c.Phases[c.open[len(c.open)-1]]
		sp.Rounds += 1 + rs.Gap
		sp.Messages += rs.Messages
		sp.Words += rs.Words
		sp.CutWords += rs.CutWords
		sp.WallNs += wall
	}
	if c.NoSeries {
		return
	}
	if rs.Gap > 0 {
		// Represent the skipped gap as one all-zero bucket spanning it, so
		// bucket spans still tile the run's rounds exactly once.
		c.push(RoundSample{Round: round - rs.Gap, Span: rs.Gap})
	}
	c.push(RoundSample{
		Round: round, Span: 1,
		Messages: rs.Messages, Words: rs.Words, CutWords: rs.CutWords,
		Active: rs.Active, MaxLinkWords: rs.MaxLinkWords, MaxQueueLen: rs.MaxQueueLen,
		WallNs: wall,
	})
}

// push appends a one-round sample, merging into stride-sized buckets and
// decimating (pairwise merge, stride doubling) at the MaxSeries cap.
func (c *Collector) push(s RoundSample) {
	if c.stride == 0 {
		c.stride = 1
	}
	if c.pendingN == 0 {
		c.pending = s
	} else {
		c.pending = mergeSamples(c.pending, s)
	}
	c.pendingN++
	if c.pendingN < c.stride {
		return
	}
	c.Series = append(c.Series, c.pending)
	c.pendingN = 0
	if c.MaxSeries >= 2 && len(c.Series) >= c.MaxSeries {
		half := c.Series[:0]
		for i := 0; i+1 < len(c.Series); i += 2 {
			half = append(half, mergeSamples(c.Series[i], c.Series[i+1]))
		}
		if len(c.Series)%2 == 1 {
			// An odd trailing bucket re-enters as the pending half-bucket.
			c.pending = c.Series[len(c.Series)-1]
			c.pendingN = c.stride
		}
		c.Series = half
		c.stride *= 2
	}
}

func mergeSamples(a, b RoundSample) RoundSample {
	out := a
	out.Span = a.Span + b.Span
	out.Messages += b.Messages
	out.Words += b.Words
	out.CutWords += b.CutWords
	out.Active += b.Active
	out.WallNs += b.WallNs
	if b.MaxLinkWords > out.MaxLinkWords {
		out.MaxLinkWords = b.MaxLinkWords
	}
	if b.MaxQueueLen > out.MaxQueueLen {
		out.MaxQueueLen = b.MaxQueueLen
	}
	return out
}

// flushPending moves a partially-filled decimation bucket into the series.
func (c *Collector) flushPending() {
	if c.pendingN > 0 {
		c.Series = append(c.Series, c.pending)
		c.pendingN = 0
	}
}

// CutSeries returns the per-round cut-words series: element i is the cut
// traffic of bucket i (one round per bucket unless decimation kicked in).
// It is what cmd/lbharness reports for the paper's Section-5 measurement.
func (c *Collector) CutSeries() []int {
	out := make([]int, len(c.Series))
	for i, s := range c.Series {
		out[i] = s.CutWords
	}
	return out
}
