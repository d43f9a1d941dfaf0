package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"congestmwc/internal/congest"
)

// driveStream feeds n synthetic executed rounds (with a phase around the
// middle third) into the streamer as observer events.
func driveStream(s *Streamer, n int) {
	feed(s, evRun(true, 0))
	for r := 1; r <= n; r++ {
		if r == n/3 {
			feed(s, evPhase(true, "test/mid", r))
		}
		feed(s, evRound(r, congest.RoundStats{Messages: 1, Words: 2, Active: 1}))
		if r == 2*n/3 {
			feed(s, evPhase(false, "test/mid", r))
		}
	}
	feed(s, evRun(false, n))
}

// collect drains the subscription until its channel closes or the timeout
// elapses, returning everything received.
func collect(t *testing.T, sub *Subscription, timeout time.Duration) []Event {
	t.Helper()
	var out []Event
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("subscription did not close within %v (%d events so far)", timeout, len(out))
		}
	}
}

func TestStreamerReplayThenLive(t *testing.T) {
	s := NewStreamer(64)
	driveStream(s, 10) // published before anyone subscribes: buffered in the ring

	sub := s.Subscribe(0)
	defer sub.Close()

	// The replay delivers everything still buffered, in order.
	var replay []Event
	for len(sub.Events()) > 0 {
		replay = append(replay, <-sub.Events())
	}
	// 10 rounds + run_start/run_end + phase begin/end = 14 events.
	if len(replay) != 14 {
		t.Fatalf("replayed %d events, want 14", len(replay))
	}
	if replay[0].Type != EventRunStart || replay[len(replay)-1].Type != EventRunEnd {
		t.Errorf("replay brackets = %s..%s, want run_start..run_end",
			replay[0].Type, replay[len(replay)-1].Type)
	}
	for i, ev := range replay {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d (no drops expected)", i, ev.Seq, i+1)
		}
	}

	// Live events continue the same sequence.
	s.Publish(Event{Type: EventState, State: "running"})
	select {
	case ev := <-sub.Events():
		if ev.Type != EventState || ev.State != "running" || ev.Seq != 15 {
			t.Errorf("live event = %+v, want state/running seq 15", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never arrived")
	}

	// Close ends every subscription; publishing afterwards is a no-op.
	s.Close()
	if _, ok := <-sub.Events(); ok {
		t.Error("subscription channel still open after streamer Close")
	}
	s.Publish(Event{Type: EventState, State: "late"})
}

func TestStreamerRoundSampleShape(t *testing.T) {
	s := NewStreamer(8)
	sub := s.Subscribe(0)
	defer sub.Close()
	feed(s, evRound(7, congest.RoundStats{Messages: 3, Words: 9, CutWords: 2, Active: 4, MaxLinkWords: 5, MaxQueueLen: 6, Gap: 2}))
	ev := <-sub.Events()
	if ev.Type != EventRound || ev.Sample == nil {
		t.Fatalf("event = %+v, want a round event with a sample", ev)
	}
	want := RoundSample{Round: 7, Span: 3, Messages: 3, Words: 9, CutWords: 2, Active: 4, MaxLinkWords: 5, MaxQueueLen: 6}
	if *ev.Sample != want {
		t.Errorf("sample = %+v, want %+v (span covers the skipped gap)", *ev.Sample, want)
	}
}

func TestStreamerDropOldestAccounting(t *testing.T) {
	s := NewStreamer(4) // tiny ring forces tiny subscriber buffers too
	sub := s.Subscribe(4)
	const published = 100
	for i := 0; i < published; i++ {
		s.Publish(Event{Type: EventState, State: fmt.Sprint(i)})
	}
	s.Close()

	evs := collect(t, sub, time.Second)
	if got := int(sub.Dropped()); got != published-len(evs) {
		t.Errorf("Dropped() = %d, want %d (published %d, delivered %d)",
			got, published-len(evs), published, len(evs))
	}
	if sub.Dropped() == 0 {
		t.Fatal("no drops despite a full buffer — backpressure untested")
	}
	// Drop-oldest: what survives is the most recent tail, in order, ending
	// at the final event.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Seq != published {
		t.Errorf("last delivered seq = %d, want %d (newest must survive)", last.Seq, published)
	}
}

func TestStreamerSubscribeAfterClose(t *testing.T) {
	s := NewStreamer(8)
	for i := 0; i < 20; i++ {
		s.Publish(Event{Type: EventState, State: fmt.Sprint(i)})
	}
	s.Publish(Event{Type: EventState, State: "done"})
	s.Close()

	sub := s.Subscribe(0)
	evs := collect(t, sub, time.Second)
	if len(evs) != 8 {
		t.Fatalf("late subscriber replayed %d events, want the 8-event ring", len(evs))
	}
	if evs[len(evs)-1].State != "done" {
		t.Errorf("late subscriber's final event = %+v, want the terminal state", evs[len(evs)-1])
	}
	sub.Close() // safe after streamer close
}

// TestStreamerTeeWithCollector drives one synthetic event stream through a
// congest.Multi of a Collector and a Streamer: the collector's record and
// the streamer's broadcast must agree on the per-round series.
func TestStreamerTeeWithCollector(t *testing.T) {
	col := &Collector{}
	str := NewStreamer(128)
	tee := congest.Multi(col, str)

	sub := str.Subscribe(0)
	feed(tee, evRun(true, 0), evPhase(true, "tee", 1))
	for r := 1; r <= 5; r++ {
		feed(tee,
			congest.Event{Kind: congest.KindRoundStart, Round: r},
			evRound(r, congest.RoundStats{Messages: r, Words: 2 * r, Active: 1}))
	}
	feed(tee, evPhase(false, "tee", 5), evRun(false, 5))
	str.Close()

	evs := collect(t, sub, time.Second)
	var streamed []RoundSample
	for _, ev := range evs {
		if ev.Type == EventRound {
			streamed = append(streamed, *ev.Sample)
		}
	}
	if len(streamed) != len(col.Series) {
		t.Fatalf("streamer saw %d rounds, collector recorded %d", len(streamed), len(col.Series))
	}
	for i := range streamed {
		if streamed[i] != col.Series[i] {
			t.Errorf("round %d: streamed %+v, collected %+v", i, streamed[i], col.Series[i])
		}
	}
	if col.Messages != 15 {
		t.Errorf("collector totals diverged: messages = %d, want 15", col.Messages)
	}
}

// TestStreamerConcurrency hammers Publish against Subscribe/Close from
// many goroutines; run under -race in CI it is the data-race oracle for
// the hub's locking.
func TestStreamerConcurrency(t *testing.T) {
	s := NewStreamer(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Publish(Event{Type: EventRound, Round: i})
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := s.Subscribe(8)
				// Drain a little, then walk away mid-stream.
				for j := 0; j < 4; j++ {
					select {
					case <-sub.Events():
					default:
					}
				}
				sub.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	s.Close()
	if got := s.Subscribe(0); got == nil {
		t.Fatal("Subscribe after close returned nil")
	}
}
