package jobs

// HTTP surface added for the sharded cluster deployment: drain-aware
// readiness, 503-on-drain submissions, batch submission, the PUT hand-off
// endpoint and Last-Event-ID stream resumption.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"congestmwc/internal/obs"
)

// TestHTTPReadyzDrainAware: /readyz answers 200 (with the shard identity)
// until SignalDrain, then 503 + Retry-After — while /healthz stays 200 for
// the whole drain window, so orchestrators don't kill a draining process.
func TestHTTPReadyzDrainAware(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{ShardID: "s7"}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Close(ctx)
	})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Ready bool   `json:"ready"`
		Shard string `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Shard != "s7" {
		t.Fatalf("pre-drain readyz: HTTP %d %+v, want 200 ready shard s7", resp.StatusCode, ready)
	}

	s.SignalDrain()

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz lacks Retry-After")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz: HTTP %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestHTTPSubmitDuringDrain503: a drain-window submission is refused with
// 503 + Retry-After — the "go elsewhere" signal, distinct from queue-full
// 429 ("retry here") — and even cache-hittable specs are refused.
func TestHTTPSubmitDuringDrain503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	spec := exactRingSpec(32, 1)
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-drain POST: HTTP %d", resp.StatusCode)
	}
	pollTerminal(t, ts, st.ID, time.Minute)

	s.SignalDrain()
	resp2, _ := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain-window POST: HTTP %d, want 503 (even though the result is cached)", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("drain-window 503 lacks Retry-After")
	}
}

// TestHTTPBatchMixed: one round trip, per-item outcomes in input order —
// valid specs admitted, identical specs coalesced onto one job, invalid
// specs rejected item-by-item without poisoning the rest.
func TestHTTPBatchMixed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 64})

	// Occupy both workers so item 0 is still queued, and so still in
	// flight, when its duplicate item 3 is admitted.
	var blockers []*Job
	for seed := int64(100); seed < 102; seed++ {
		b, err := s.Submit(exactRingSpec(2048, seed))
		if err != nil {
			t.Fatalf("blocker Submit: %v", err)
		}
		waitState(t, b, StateRunning, 30*time.Second)
		blockers = append(blockers, b)
	}

	req := BatchRequest{Jobs: []Spec{
		exactRingSpec(48, 1),
		{Graph: GraphSpec{Class: "nope", Gen: &GenSpec{Kind: "ring", N: 8}}, Algo: AlgoExact}, // bad class
		exactRingSpec(48, 2),
		exactRingSpec(48, 1), // duplicate of item 0: must coalesce
	}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch POST: HTTP %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 3 || br.Rejected != 1 || len(br.Results) != 4 {
		t.Fatalf("batch tally accepted=%d rejected=%d results=%d, want 3/1/4", br.Accepted, br.Rejected, len(br.Results))
	}
	for i, item := range br.Results {
		if item.Index != i {
			t.Errorf("result %d carries index %d: order must be preserved", i, item.Index)
		}
	}
	if br.Results[1].Code != http.StatusBadRequest || br.Results[1].Error == "" {
		t.Errorf("invalid item: %+v, want 400 with an error", br.Results[1])
	}
	for _, i := range []int{0, 2, 3} {
		item := br.Results[i]
		if item.Code != http.StatusAccepted && item.Code != http.StatusOK {
			t.Errorf("item %d: code %d, want 202/200", i, item.Code)
		}
		if item.Status == nil || item.Status.ID == "" {
			t.Errorf("item %d has no status", i)
		}
	}
	if a, b := br.Results[0].Status.ID, br.Results[3].Status.ID; a != b {
		t.Errorf("identical specs got distinct jobs %s and %s: batch items must dedup", a, b)
	}
	for _, b := range blockers {
		if _, err := s.Cancel(b.ID()); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	for _, i := range []int{0, 2} {
		st := pollTerminal(t, ts, br.Results[i].Status.ID, time.Minute)
		if st.State != StateDone {
			t.Errorf("batch job %s ended %s (%s)", st.ID, st.State, st.Error)
		}
	}
}

// TestHTTPBatchLimits: an empty batch is 400; one over MaxBatchItems is
// rejected whole with 413 before any item is admitted.
func TestHTTPBatchLimits(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(NewHandler(s, HandlerConfig{MaxBatchItems: 2}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Close(ctx)
	})

	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", bytes.NewReader([]byte(`{"jobs":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: HTTP %d, want 400", resp.StatusCode)
	}

	over, _ := json.Marshal(BatchRequest{Jobs: []Spec{exactRingSpec(16, 1), exactRingSpec(16, 2), exactRingSpec(16, 3)}})
	resp, err = http.Post(ts.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: HTTP %d, want 413", resp.StatusCode)
	}
	if n := len(s.List(0)); n != 0 {
		t.Errorf("rejected batches admitted %d jobs, want 0", n)
	}
}

// TestHTTPHandOffPut: PUT /v1/jobs/{id} admits under the caller's ID
// (preserving it across a shard hand-off), is idempotent per ID, and
// answers later identical hand-offs from the cache.
func TestHTTPHandOffPut(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	put := func(id string, req HandOffRequest) (*http.Response, Status) {
		t.Helper()
		body, _ := json.Marshal(req)
		httpReq, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/"+id, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Status
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
		}
		return resp, st
	}

	spec := exactRingSpec(48, 9)
	resp, st := put("dead-j-00000042", HandOffRequest{Spec: spec, Interrupted: 2})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("hand-off PUT: HTTP %d", resp.StatusCode)
	}
	if st.ID != "dead-j-00000042" {
		t.Fatalf("hand-off assigned ID %q, want the original preserved", st.ID)
	}
	if st.InterruptedAttempts != 2 {
		t.Errorf("InterruptedAttempts = %d, want 2", st.InterruptedAttempts)
	}

	// Same ID again while in flight: the same job, not a second execution.
	resp2, st2 := put("dead-j-00000042", HandOffRequest{Spec: spec, Interrupted: 2})
	if resp2.StatusCode >= 300 || st2.ID != st.ID {
		t.Fatalf("repeat PUT: HTTP %d id %q, want the original job", resp2.StatusCode, st2.ID)
	}

	final := pollTerminal(t, ts, "dead-j-00000042", time.Minute)
	if final.State != StateDone {
		t.Fatalf("handed-off job ended %s (%s)", final.State, final.Error)
	}

	// A different ID with the same spec is now a cache hit: terminal at
	// birth under the new ID, no re-simulation.
	resp3, st3 := put("dead-j-00000043", HandOffRequest{Spec: spec})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cached hand-off: HTTP %d, want 200", resp3.StatusCode)
	}
	if st3.ID != "dead-j-00000043" || st3.State != StateDone || !st3.CacheHit {
		t.Errorf("cached hand-off status %+v, want done cache hit under the given ID", st3)
	}
}

// TestHTTPEventsLastEventID: a reconnecting subscriber that presents
// Last-Event-ID gets only events after its resume point — replayed history
// it already saw is filtered server-side — and still gets the close notice.
func TestHTTPEventsLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Observe: true})
	_, st := postJob(t, ts, exactRingSpec(48, 3))
	pollTerminal(t, ts, st.ID, time.Minute)

	// Full replay first, to learn the final seq.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	total := 0
	clean, _ := readSSE(t, resp, 30*time.Second, func(ev sseEvent) bool {
		epoch, seq, ok := obs.ParseSSEID(ev.id)
		if !ok || epoch != 1 {
			t.Errorf("fresh job event id %q, want epoch 1", ev.id)
		}
		last = seq
		total++
		return true
	})
	resp.Body.Close()
	if !clean || total < 3 {
		t.Fatalf("full replay: clean=%v events=%d", clean, total)
	}

	resume := last - 2
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", obs.FormatSSEID(1, resume))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	clean, comments := readSSE(t, resp, 30*time.Second, func(ev sseEvent) bool {
		_, seq, _ := obs.ParseSSEID(ev.id)
		got = append(got, seq)
		return true
	})
	resp.Body.Close()
	if !clean {
		t.Fatal("resumed stream did not close cleanly")
	}
	if len(got) != 2 || got[0] != resume+1 || got[1] != resume+2 {
		t.Fatalf("resumed from %d: got seqs %v, want exactly [%d %d]", resume, got, resume+1, resume+2)
	}
	if len(comments) == 0 {
		t.Error("resumed stream lost the close notice")
	}
}

// TestHTTPEventsEpochFencing: after a journal hand-off the successor's hub
// renumbers from 1 under a higher epoch. A client resuming with a
// Last-Event-ID from the previous attempt (stale epoch, high sequence) must
// get a full replay — not have the new attempt's early events silently
// suppressed — while a same-epoch resume still skips what it already saw.
func TestHTTPEventsEpochFencing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Observe: true})

	// Admit like a router replaying a dead shard's job: one prior attempt,
	// so this stream runs under epoch 2.
	body, _ := json.Marshal(HandOffRequest{Spec: exactRingSpec(48, 4), Interrupted: 1})
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs/dead-j-00000001", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("hand-off PUT: HTTP %d", resp.StatusCode)
	}
	pollTerminal(t, ts, "dead-j-00000001", time.Minute)

	stream := func(lastID string) (ids []string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/dead-j-00000001/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := readSSE(t, resp, 30*time.Second, func(ev sseEvent) bool {
			ids = append(ids, ev.id)
			return true
		})
		resp.Body.Close()
		if !clean {
			t.Fatal("stream did not close cleanly")
		}
		return ids
	}

	full := stream("")
	if len(full) < 3 {
		t.Fatalf("full replay too short to fence: %d events", len(full))
	}
	for _, id := range full {
		epoch, _, ok := obs.ParseSSEID(id)
		if !ok || epoch != 2 {
			t.Fatalf("handed-off job event id %q, want epoch 2", id)
		}
	}

	// Stale epoch, high sequence — the bug scenario: before fencing this
	// suppressed every replayed event. Now it must replay everything.
	if got := stream(obs.FormatSSEID(1, 1_000_000)); len(got) != len(full) {
		t.Errorf("stale-epoch resume replayed %d events, want the full %d", len(got), len(full))
	}
	// A bare numeric ID (pre-epoch client) counts as epoch 1 — also stale
	// against this epoch-2 stream, so it too gets the full replay.
	if got := stream("1000000"); len(got) != len(full) {
		t.Errorf("bare-ID resume replayed %d events, want the full %d", len(got), len(full))
	}
	// Same epoch: normal skip semantics, only the missing suffix arrives.
	if got := stream(full[len(full)-3]); len(got) != 2 ||
		got[0] != full[len(full)-2] || got[1] != full[len(full)-1] {
		t.Errorf("same-epoch resume got %v, want the last two of %v", got, full)
	}
}
