package congest

import (
	"fmt"
	"strings"
	"testing"
)

// Direct unit tests for the bundled observers: TraceWriter's suppression
// accounting and the Multi fan-out, plus the recorder the engine tests
// observe with.

// recorder is a test Observer wanting the kinds in mask. It counts events
// by kind and messages by tag, sums 1+Gap over round ends (which must
// reproduce Stats.Rounds), and with log set keeps every event verbatim.
type recorder struct {
	mask   Mask
	log    bool
	counts [numKinds]int
	perTag map[int64]int
	rounds int
	maxGap int
	events []string
}

func (r *recorder) Wants() Mask { return r.mask }

func (r *recorder) Observe(ev *Event) {
	r.counts[ev.Kind]++
	switch ev.Kind {
	case KindMessage:
		if r.perTag == nil {
			r.perTag = make(map[int64]int)
		}
		r.perTag[ev.Msg.Tag]++
	case KindRoundEnd:
		r.rounds += 1 + ev.Stats.Gap
		r.maxGap = max(r.maxGap, ev.Stats.Gap)
	}
	if r.log {
		r.events = append(r.events, fmt.Sprintf("%+v", *ev))
	}
}

// msgEvent is a KindMessage event from 0 to 1 at round r.
func msgEvent(r int, m Msg) *Event {
	return &Event{Kind: KindMessage, Round: r, From: 0, To: 1, Msg: m}
}

func TestTraceWriterSuppressionAccounting(t *testing.T) {
	var sb strings.Builder
	tw := &TraceWriter{W: &sb, MaxMessages: 2}
	for i := 0; i < 5; i++ {
		tw.Observe(msgEvent(1, Msg{Tag: 9, Words: []int64{int64(i), 3}}))
	}
	if got := tw.Suppressed(); got != 3 {
		t.Fatalf("Suppressed() = %d, want 3", got)
	}
	tw.Flush()
	out := sb.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 printed + 1 suppression:\n%s", len(lines), out)
	}
	// The size field must be 1 (tag) + payload words.
	if want := "r=1 0->1 tag=9 size=3 words=[0 3]"; lines[0] != want {
		t.Errorf("line 0 = %q, want %q", lines[0], want)
	}
	if want := "... 3 messages suppressed"; lines[2] != want {
		t.Errorf("line 2 = %q, want %q", lines[2], want)
	}

	// Flush is incremental: nothing new suppressed, nothing written.
	before := sb.Len()
	tw.Flush()
	if sb.Len() != before {
		t.Errorf("second Flush wrote output with nothing new suppressed")
	}

	// Further suppressed messages are reported as a delta by the next
	// run-end notification.
	tw.Observe(msgEvent(2, Msg{Tag: 9}))
	tw.Observe(&Event{Kind: KindRunEnd, Round: 2})
	if !strings.HasSuffix(sb.String(), "... 1 messages suppressed\n") {
		t.Errorf("run end did not flush the delta:\n%s", sb.String())
	}
	if got := tw.Suppressed(); got != 4 {
		t.Errorf("Suppressed() = %d, want 4", got)
	}
}

func TestTraceWriterUnlimited(t *testing.T) {
	var sb strings.Builder
	tw := &TraceWriter{W: &sb}
	for i := 0; i < 4; i++ {
		tw.Observe(msgEvent(i, Msg{Tag: 1}))
	}
	tw.Flush()
	if got := strings.Count(sb.String(), "\n"); got != 4 {
		t.Errorf("got %d lines, want 4 (no suppression line without MaxMessages)", got)
	}
	if tw.Suppressed() != 0 {
		t.Errorf("Suppressed() = %d, want 0", tw.Suppressed())
	}
}

func TestMultiFanOut(t *testing.T) {
	full := &recorder{mask: AllEvents, log: true}
	msgs := &recorder{mask: MaskOf(KindRoundStart, KindMessage)}
	m := Multi(full, nil, msgs)
	if got := m.Wants(); got != AllEvents {
		t.Fatalf("Multi wants %b, want the union %b", got, AllEvents)
	}
	for _, ev := range []Event{
		{Kind: KindRunStart},
		{Kind: KindPhaseBegin, Phase: "p"},
		{Kind: KindRoundStart, Round: 1},
		{Kind: KindMessage, Round: 1, Msg: Msg{Tag: 5}},
		{Kind: KindRoundEnd, Round: 1, Stats: RoundStats{Messages: 1, Words: 1}},
		{Kind: KindPhaseEnd, Round: 1, Phase: "p"},
		{Kind: KindRunEnd, Round: 1},
	} {
		m.Observe(&ev)
	}
	for k := Kind(0); k < numKinds; k++ {
		if full.counts[k] != 1 {
			t.Errorf("full recorder saw kind %d %d times, want once", k, full.counts[k])
		}
	}
	if len(full.events) != int(numKinds) {
		t.Errorf("full recorder logged %v", full.events)
	}
	// The narrow member is forwarded exactly the kinds in its mask.
	want := [numKinds]int{KindRoundStart: 1, KindMessage: 1}
	if msgs.counts != want {
		t.Errorf("narrow recorder saw %v, want %v", msgs.counts, want)
	}
	if Multi() != nil || Multi(nil) != nil {
		t.Error("Multi of no observers is not nil")
	}
	if Multi(msgs) != Observer(msgs) {
		t.Error("Multi of one observer does not return it")
	}
}
