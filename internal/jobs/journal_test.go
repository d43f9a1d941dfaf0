package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"congestmwc"
)

// fakeJournal is an in-memory Journal that records the exact call
// sequence, for asserting event order and the drain-vs-sync contract.
type fakeJournal struct {
	mu      sync.Mutex
	events  []JournalEvent
	syncs   int
	syncPos []int // len(events) at the moment of each Sync call
	durable map[string]*congestmwc.Result
}

func newFakeJournal() *fakeJournal {
	return &fakeJournal{durable: make(map[string]*congestmwc.Result)}
}

func (f *fakeJournal) Record(ev JournalEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events = append(f.events, ev)
}

func (f *fakeJournal) Lookup(key string) (*congestmwc.Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	res, ok := f.durable[key]
	return res, ok
}

func (f *fakeJournal) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	f.syncPos = append(f.syncPos, len(f.events))
	return nil
}

func (f *fakeJournal) snapshot() ([]JournalEvent, int, []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]JournalEvent(nil), f.events...), f.syncs, append([]int(nil), f.syncPos...)
}

// eventsFor filters one job's events, preserving order.
func eventsFor(events []JournalEvent, id string) []JournalEvent {
	var out []JournalEvent
	for _, ev := range events {
		if ev.ID == id {
			out = append(out, ev)
		}
	}
	return out
}

func TestJournalLifecycleEvents(t *testing.T) {
	fj := newFakeJournal()
	s := New(Config{Workers: 1, Journal: fj})

	j, err := s.Submit(exactRingSpec(48, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, j, time.Minute); st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	closeService(t, s)

	events, _, _ := fj.snapshot()
	evs := eventsFor(events, j.ID())
	if len(evs) != 3 {
		t.Fatalf("job emitted %d events, want 3 (admit, running, done): %+v", len(evs), evs)
	}
	if evs[0].Type != EventAdmit || evs[0].State != StateQueued || evs[0].Spec == nil {
		t.Errorf("first event = %+v, want an admit with the spec attached", evs[0])
	}
	if evs[1].Type != EventState || evs[1].State != StateRunning {
		t.Errorf("second event = %+v, want the running transition", evs[1])
	}
	if evs[2].Type != EventState || evs[2].State != StateDone {
		t.Errorf("third event = %+v, want the done transition", evs[2])
	}
	if evs[2].Result == nil || !evs[2].Result.Found {
		t.Errorf("done event carries no result: %+v", evs[2].Result)
	}
	if evs[2].Key != j.Key() {
		t.Errorf("done event key %s != job key %s", evs[2].Key, j.Key())
	}
}

// TestCloseSyncsAfterFinalTransitions is the drain-vs-journal-ordering
// regression test: Service.Close must call Journal.Sync only after the
// workers have exited — i.e. after the terminal transitions of the last
// batch were recorded — so a graceful shutdown never loses results.
func TestCloseSyncsAfterFinalTransitions(t *testing.T) {
	fj := newFakeJournal()
	s := New(Config{Workers: 2, QueueCap: 16, Journal: fj})

	jobs := make([]*Job, 0, 4)
	for i := int64(0); i < 4; i++ {
		j, err := s.Submit(exactRingSpec(96, i))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	// Close while work is still in flight: the drain must complete the
	// running jobs, journal their terminal events, and only then sync.
	closeService(t, s)

	events, syncs, syncPos := fj.snapshot()
	if syncs == 0 {
		t.Fatal("Close never called Journal.Sync")
	}
	terminalSeen := 0
	for _, ev := range events {
		if ev.Type == EventState && ev.State.Terminal() {
			terminalSeen++
		}
	}
	if terminalSeen != len(jobs) {
		t.Fatalf("journal has %d terminal events, want %d", terminalSeen, len(jobs))
	}
	// Every event — including the last batch's terminal transitions — must
	// precede the first Sync.
	if syncPos[0] != len(events) {
		t.Errorf("first Sync saw %d/%d events: terminal transitions were recorded after the flush",
			syncPos[0], len(events))
	}
}

func TestSubmitDedupsInflightByKey(t *testing.T) {
	fj := newFakeJournal()
	s := New(Config{Workers: 1, Journal: fj})
	defer closeService(t, s)

	// Occupy the worker so the duplicate lands while the first is running.
	spec := exactRingSpec(2048, 5)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, first, StateRunning, 30*time.Second)

	dup, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if dup != first {
		t.Fatalf("duplicate submission got a new job %s, want the in-flight %s", dup.ID(), first.ID())
	}
	if m := s.Metrics(); m.Deduped != 1 {
		t.Errorf("Metrics.Deduped = %d, want 1", m.Deduped)
	}
	// The duplicate must not have been journaled as a second admission.
	events, _, _ := fj.snapshot()
	admits := 0
	for _, ev := range events {
		if ev.Type == EventAdmit {
			admits++
		}
	}
	if admits != 1 {
		t.Errorf("journal has %d admit events, want 1", admits)
	}

	if _, err := s.Cancel(first.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, first, 30*time.Second)

	// Once terminal, the key is free again: a resubmission is a fresh job.
	third, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("post-terminal Submit: %v", err)
	}
	if third == first {
		t.Error("submission after the job went terminal returned the dead job")
	}
	// Running the fresh job to completion takes over a minute under -race.
	if _, err := s.Cancel(third.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, third, 30*time.Second)
}

func TestDurableLookupBacksCacheMiss(t *testing.T) {
	fj := newFakeJournal()
	s := New(Config{Workers: 1, Journal: fj})
	defer closeService(t, s)

	spec := exactRingSpec(48, 9)
	r, err := spec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(r.g, r.algo, r.opts)
	fj.durable[key] = &congestmwc.Result{Weight: 77, Found: true, Rounds: 5}

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := j.Status()
	if st.State != StateDone || !st.CacheHit {
		t.Fatalf("submission with a durable result: state %s cacheHit %v, want done/true", st.State, st.CacheHit)
	}
	if st.Result == nil || st.Result.Weight != 77 {
		t.Fatalf("durable result not served: %+v", st.Result)
	}
	if got := s.Metrics().RoundsSimulated; got != 0 {
		t.Errorf("durable hit still simulated %d rounds", got)
	}

	// The durable hit was promoted into the memory cache: a repeat is an
	// ordinary cache hit even if the journal forgets the key.
	delete(fj.durable, key)
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st := j2.Status(); st.State != StateDone || !st.CacheHit {
		t.Errorf("promoted result not cached: state %s cacheHit %v", st.State, st.CacheHit)
	}
}

func TestRestoreRequeuesAndWarms(t *testing.T) {
	fj := newFakeJournal()
	s := New(Config{Workers: 2, QueueCap: 2, Journal: fj})
	defer closeService(t, s)

	warmSpec := exactRingSpec(48, 20)
	r, err := warmSpec.resolve(0)
	if err != nil {
		t.Fatal(err)
	}
	warmKey := cacheKey(r.g, r.algo, r.opts)

	// More pending jobs than the queue capacity: Restore must not drop any
	// to backpressure.
	pending := make([]RecoveredJob, 0, 5)
	for i := int64(0); i < 5; i++ {
		pending = append(pending, RecoveredJob{
			ID:          "", // exercise ID regeneration too
			Spec:        exactRingSpec(48, 30+i),
			Interrupted: 1,
		})
	}
	pending[0].ID = "j-00000777"

	warmed, requeued, err := s.Restore(RecoveredState{
		Results: map[string]*congestmwc.Result{warmKey: {Weight: 12, Found: true, Rounds: 8}},
		Pending: pending,
		MaxID:   900,
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if warmed != 1 || requeued != 5 {
		t.Fatalf("Restore = (%d warmed, %d requeued), want (1, 5)", warmed, requeued)
	}

	j, err := s.Get("j-00000777")
	if err != nil {
		t.Fatalf("restored job lost its ID: %v", err)
	}
	st := waitTerminal(t, j, time.Minute)
	if st.State != StateDone {
		t.Fatalf("restored job ended %s (%s)", st.State, st.Error)
	}
	if st.InterruptedAttempts != 1 {
		t.Errorf("restored job InterruptedAttempts = %d, want 1", st.InterruptedAttempts)
	}

	// Warm cache serves the result with zero simulation.
	wj, err := s.Submit(warmSpec)
	if err != nil {
		t.Fatalf("Submit warm spec: %v", err)
	}
	if wst := wj.Status(); wst.State != StateDone || !wst.CacheHit || wst.Result.Weight != 12 {
		t.Errorf("warm result not served from cache: %+v", wst)
	}

	// New submissions allocate IDs beyond MaxID, never colliding with
	// pre-crash jobs.
	nj, err := s.Submit(exactRingSpec(48, 99))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if nj.ID() <= "j-00000900" {
		t.Errorf("new job ID %s did not clear the recovered MaxID 900", nj.ID())
	}
}

// TestCloseReportsJournalSyncError ensures a failing flush on the
// shutdown path is not swallowed.
func TestCloseReportsJournalSyncError(t *testing.T) {
	fj := &failingSyncJournal{}
	s := New(Config{Workers: 1, Journal: fj})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err == nil {
		t.Fatal("Close swallowed the journal sync error")
	}
}

type failingSyncJournal struct{}

func (failingSyncJournal) Record(JournalEvent) {}
func (failingSyncJournal) Lookup(string) (*congestmwc.Result, bool) {
	return nil, false
}
func (failingSyncJournal) Sync() error { return context.DeadlineExceeded }
