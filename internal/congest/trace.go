package congest

import (
	"fmt"
	"io"
)

// TraceWriter is an Observer that writes a compact text log, for debugging
// distributed algorithms:
//
//	r=12 3->7 tag=202 size=6 words=[5 2 1 5 0]
//
// size is the message size in words (tag + payload), so fragmentation cost
// — a size-s message occupies its link for ceil(s/B) rounds — is visible
// directly in the trace.
//
// MaxMessages bounds the log volume (0 = unlimited); further messages are
// counted but not printed. At the end of every Run (the writer wants
// KindRunEnd) a trailing
//
//	... 17 messages suppressed
//
// line accounts for the drop; Flush writes it on demand for callers that
// bypass Run-end notifications.
type TraceWriter struct {
	W           io.Writer
	MaxMessages int

	printed    int
	suppressed int
	reported   int // suppressed messages already accounted for by Flush
}

var _ Observer = (*TraceWriter)(nil)

// Wants implements Observer: deliveries, and run ends for the flush.
func (t *TraceWriter) Wants() Mask { return MaskOf(KindMessage, KindRunEnd) }

// Observe implements Observer.
func (t *TraceWriter) Observe(ev *Event) {
	if ev.Kind == KindRunEnd {
		t.Flush()
		return
	}
	if t.MaxMessages > 0 && t.printed >= t.MaxMessages {
		t.suppressed++
		return
	}
	t.printed++
	fmt.Fprintf(t.W, "r=%d %d->%d tag=%d size=%d words=%v\n", ev.Round, ev.From, ev.To, ev.Msg.Tag, ev.Msg.Size(), ev.Msg.Words)
}

// Flush writes a "... N messages suppressed" line covering the messages
// suppressed since the previous Flush (none is written when nothing new
// was suppressed).
func (t *TraceWriter) Flush() {
	if d := t.suppressed - t.reported; d > 0 {
		fmt.Fprintf(t.W, "... %d messages suppressed\n", d)
		t.reported = t.suppressed
	}
}

// Suppressed returns the number of messages dropped by MaxMessages.
func (t *TraceWriter) Suppressed() int { return t.suppressed }
