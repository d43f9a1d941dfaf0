package congest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"congestmwc/internal/gen"
)

// cancelAtObserver cancels a context the first time round k executes, so
// cancellation lands at a deterministic point of the run.
type cancelAtObserver struct {
	k      int
	cancel context.CancelFunc
}

func (o *cancelAtObserver) Wants() Mask { return MaskOf(KindRoundStart) }

func (o *cancelAtObserver) Observe(ev *Event) {
	if ev.Round >= o.k {
		o.cancel()
	}
}

// runCanceledChatter starts an endless chatter run that is canceled at
// round k and returns the rounds consumed plus the run error.
func runCanceledChatter(t *testing.T, parallel bool, k int) (int, *Network, error) {
	t.Helper()
	const n = 8
	net, err := NewNetwork(gen.Ring(n, false, false, 1), Options{Seed: 1, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net.SetContext(ctx)
	net.SetObserver(&cancelAtObserver{k: k, cancel: cancel})
	rounds, err := net.Run(progsFor(n, chatterProgram{}), 0)
	return rounds, net, err
}

func TestCancelMidRunStopsWithinOneRound(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			const k = 40
			rounds, net, err := runCanceledChatter(t, parallel, k)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("Run error = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run error = %v, want to wrap context.Canceled", err)
			}
			// The chatter never quiesces: without cancellation the run would
			// only stop at the default budget (millions of rounds). With the
			// context canceled as round k starts, the run must stop within
			// one executed round.
			if rounds < k || rounds > k+1 {
				t.Errorf("rounds = %d, want within one round of %d", rounds, k)
			}
			if got := net.Stats().Rounds; got != rounds {
				t.Errorf("Stats.Rounds = %d, want %d (executed work only)", got, rounds)
			}
		})
	}
}

func TestCancelBeforeRun(t *testing.T) {
	net, err := NewNetwork(gen.Path(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net.SetContext(ctx)
	rounds, err := net.Run(progsFor(2, chatterProgram{}), 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run error = %v, want ErrCanceled", err)
	}
	if rounds != 0 || net.Stats().Rounds != 0 {
		t.Errorf("rounds = %d stats = %d, want 0 work before a canceled run", rounds, net.Stats().Rounds)
	}
}

func TestDeadlineExceededIsDistinguishable(t *testing.T) {
	net, err := NewNetwork(gen.Path(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	net.SetContext(ctx)
	if _, err := net.Run(progsFor(2, chatterProgram{}), 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v, want to wrap context.DeadlineExceeded", err)
	}
}

// cancelInInitProgram cancels the network's context from the Init phase
// and sends nothing, so the run loop's pending-work condition is false as
// soon as the Init batch ends.
type cancelInInitProgram struct {
	Base
	cancel context.CancelFunc
}

func (p cancelInInitProgram) Init(*Node) { p.cancel() }

func TestCancelDuringInitPhase(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			const n = 8
			net, err := NewNetwork(gen.Ring(n, false, false, 1), Options{Seed: 1, Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			net.SetContext(ctx)
			// With nothing queued and nothing scheduled after Init, a run that
			// missed the post-Init abort check would return nil over a
			// partially initialized network.
			if _, err := net.Run(progsFor(n, cancelInInitProgram{cancel: cancel}), 0); !errors.Is(err, ErrCanceled) {
				t.Fatalf("Run error = %v, want ErrCanceled for a cancellation during Init", err)
			}
		})
	}
}

func TestSetContextNilRemovesAbortSignal(t *testing.T) {
	g := gen.Path(4)
	net, err := NewNetwork(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net.SetContext(ctx)
	net.SetContext(nil)
	p := newFlood(4)
	if _, err := net.Run(progsFor(4, p), 0); err != nil {
		t.Fatalf("Run after SetContext(nil) = %v, want success", err)
	}
}

func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, _, err := runCanceledChatter(t, true, 25); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Run error = %v, want ErrCanceled", err)
		}
	}
	// The parallel engine joins its workers at the per-round barrier even
	// when they bail on cancellation, so the goroutine count must settle
	// back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines after canceled runs = %d, want <= %d", after, before)
	}
}
