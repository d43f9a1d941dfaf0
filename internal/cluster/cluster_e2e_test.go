package cluster_test

// End-to-end cluster tests: real jobs.Service workers behind httptest
// listeners, a real Router in front, everything under -race. These pin the
// ISSUE's acceptance criteria: cluster-wide dedup through the router,
// journal hand-off completing jobs under their original IDs on the ring
// successor, ≥50-item mixed batches with correct per-item statuses, and
// SSE streams that survive the router (and a shard death) unchanged.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"congestmwc/internal/cluster"
	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
	"congestmwc/internal/session"
	"congestmwc/internal/store"
)

// ringSpec is the workhorse job: exact MWC on a weighted ring, sized by n,
// with the seed varied to mint distinct canonical keys.
func ringSpec(n int, seed int64) jobs.Spec {
	return jobs.Spec{
		Graph: jobs.GraphSpec{Class: "uw", Gen: &jobs.GenSpec{Kind: "ring", N: n, MaxW: 7, Seed: seed}},
		Algo:  jobs.AlgoExact,
		Opts:  jobs.OptionsSpec{Seed: seed},
	}
}

// shard is one in-process mwcd worker: a jobs.Service (optionally durable)
// behind an httptest listener.
type shard struct {
	name string
	dir  string
	svc  *jobs.Service
	mgr  *session.Manager
	st   *store.Store
	srv  *httptest.Server
}

func startShard(t *testing.T, name string, workers int, durable bool) *shard {
	t.Helper()
	sh := &shard{name: name}
	cfg := jobs.Config{
		Workers:        workers,
		QueueCap:       64,
		Observe:        true,
		IDPrefix:       name + "-",
		DefaultTimeout: 2 * time.Minute,
	}
	if durable {
		sh.dir = t.TempDir()
		st, err := store.Open(store.Options{Dir: sh.dir, Fsync: store.FsyncNone})
		if err != nil {
			t.Fatalf("open store for %s: %v", name, err)
		}
		sh.st = st
		cfg.Journal = st
	}
	sh.svc = jobs.New(cfg)
	if sh.st != nil {
		if _, _, err := sh.svc.Restore(sh.st.Recovered()); err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
	}
	// Mount the dynamic-session API next to the jobs API, exactly as
	// cmd/mwcd composes them.
	scfg := session.Config{Jobs: sh.svc, IDPrefix: name + "-", Observe: true}
	if sh.st != nil {
		scfg.Store = sh.st
	}
	mgr, err := session.NewManager(scfg)
	if err != nil {
		t.Fatalf("session manager for %s: %v", name, err)
	}
	sh.mgr = mgr
	if sh.st != nil {
		if _, err := sh.mgr.Restore(); err != nil {
			t.Fatalf("restore sessions %s: %v", name, err)
		}
	}
	mux := http.NewServeMux()
	sessAPI := session.NewHandler(sh.mgr, session.HandlerConfig{})
	mux.Handle("/v1/graphs", sessAPI)
	mux.Handle("/v1/graphs/", sessAPI)
	mux.Handle("/", jobs.NewHandler(sh.svc, jobs.HandlerConfig{ShardID: name}))
	sh.srv = httptest.NewServer(mux)
	t.Cleanup(func() { sh.stop() })
	return sh
}

// stop shuts the shard down gracefully. Safe after kill.
func (sh *shard) stop() {
	sh.srv.Close()
	sh.mgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = sh.svc.Close(ctx)
	if sh.st != nil {
		_ = sh.st.Close()
	}
}

// kill simulates a crash: the WAL freezes with the shard's queued and
// running jobs still pending (their terminal records never get written),
// and the HTTP listener dies so health probes fail. The in-process service
// is then torn down with an already-cancelled context — its goroutines
// abort, and anything they try to journal is dropped by the closed store,
// exactly as if the process had been SIGKILLed.
func (sh *shard) kill() {
	if sh.st != nil {
		_ = sh.st.Close()
	}
	// Sever live connections (SSE tails included) abruptly, as a real
	// process death would, so proxies observe a mid-stream read error
	// rather than a clean close.
	sh.srv.CloseClientConnections()
	sh.srv.Close()
	sh.mgr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = sh.svc.Close(ctx)
}

// startRouter wires a Router over the shards and serves it. The caller
// gets the router (for CheckAll) and its base URL.
func startRouter(t *testing.T, shards []*shard, mutate func(*cluster.Config)) (*cluster.Router, string) {
	t.Helper()
	cfg := cluster.Config{FailAfter: 2, CheckInterval: 50 * time.Millisecond}
	for _, sh := range shards {
		cfg.Workers = append(cfg.Workers, cluster.WorkerConfig{
			Name: sh.name, URL: sh.srv.URL, DataDir: sh.dir,
		})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckAll(context.Background())
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	return r, srv.URL
}

// pinnedSpec searches seeds until the spec's canonical key places on the
// wanted shard — the same pure ring function the router uses, so the test
// controls placement without reaching into the router.
func pinnedSpec(t *testing.T, ring *cluster.Ring, target string, n int, from int64) jobs.Spec {
	t.Helper()
	for seed := from; seed < from+512; seed++ {
		spec := ringSpec(n, seed)
		info, err := spec.Inspect(0)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Lookup(info.Key) == target {
			return spec
		}
	}
	t.Fatalf("no seed in [%d,%d) places an n=%d ring on %s", from, from+512, n, target)
	return jobs.Spec{}
}

func submit(t *testing.T, base string, spec jobs.Spec) (*http.Response, jobs.Status) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func status(t *testing.T, base, id, query string) (int, jobs.Status) {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := status(t, base, id, "wait=2s")
		if code == http.StatusOK && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v (last: HTTP %d, %s)", id, timeout, code, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func topology(t *testing.T, base string) cluster.Topology {
	t.Helper()
	resp, err := http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo cluster.Topology
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestClusterPlacementAndDedup: identical specs submitted through the
// router land on one shard and coalesce into one execution; distinct specs
// spread across shards; per-job requests route to the owning shard by ID
// prefix.
func TestClusterPlacementAndDedup(t *testing.T) {
	s0 := startShard(t, "s0", 2, false)
	s1 := startShard(t, "s1", 2, false)
	_, base := startRouter(t, []*shard{s0, s1}, nil)

	// Concurrent identical submissions: every accepted (non-cache-hit)
	// response must name the same job — one execution cluster-wide.
	spec := ringSpec(512, 7)
	type outcome struct {
		id   string
		hit  bool
		code int
	}
	results := make(chan outcome, 3)
	for i := 0; i < 3; i++ {
		go func() {
			resp, st := submit(t, base, spec)
			results <- outcome{id: st.ID, hit: st.CacheHit, code: resp.StatusCode}
		}()
	}
	fresh := make(map[string]bool)
	for i := 0; i < 3; i++ {
		o := <-results
		if o.code != http.StatusAccepted && o.code != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, o.code)
		}
		if !o.hit {
			fresh[o.id] = true
		}
	}
	if len(fresh) != 1 {
		t.Fatalf("identical specs produced %d distinct executions (%v), want 1", len(fresh), fresh)
	}
	var jobID string
	for id := range fresh {
		jobID = id
	}
	final := waitTerminal(t, base, jobID, time.Minute)
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}

	// The router's view of the job matches the owning worker's own.
	owner := s0
	if strings.HasPrefix(jobID, "s1-") {
		owner = s1
	}
	_, direct := status(t, owner.srv.URL, jobID, "")
	if direct.ID != final.ID || direct.Key != final.Key || direct.State != final.State {
		t.Errorf("router status %+v diverges from worker status %+v", final, direct)
	}

	// Distinct specs spread: with 12 random keys on 2 shards, both sides
	// get work (probability of a miss ~0.05%).
	for seed := int64(100); seed < 112; seed++ {
		resp, _ := submit(t, base, ringSpec(32, seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d", seed, resp.StatusCode)
		}
	}
	topo := topology(t, base)
	for _, wk := range topo.Workers {
		if wk.Placed == 0 {
			t.Errorf("worker %s received no placements: %+v", wk.Name, topo.Workers)
		}
	}
}

// TestClusterBatch: a ≥50-item mixed batch through the router — valid,
// duplicate and invalid specs — comes back with per-item statuses in input
// order, partial acceptance, and every accepted job completing.
func TestClusterBatch(t *testing.T) {
	s0 := startShard(t, "s0", 2, false)
	s1 := startShard(t, "s1", 2, false)
	_, base := startRouter(t, []*shard{s0, s1}, nil)

	const total = 52
	var req jobs.BatchRequest
	invalid := map[int]bool{13: true, 29: true, 44: true}
	duplicateOf0 := map[int]bool{20: true, 40: true}
	for i := 0; i < total; i++ {
		switch {
		case invalid[i]:
			req.Jobs = append(req.Jobs, jobs.Spec{
				Graph: jobs.GraphSpec{Class: "zz", Gen: &jobs.GenSpec{Kind: "ring", N: 8}},
				Algo:  jobs.AlgoExact,
			})
		case duplicateOf0[i]:
			req.Jobs = append(req.Jobs, ringSpec(24, 1000))
		default:
			req.Jobs = append(req.Jobs, ringSpec(24, 1000+int64(i)))
		}
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, raw)
	}
	var br jobs.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != total {
		t.Fatalf("batch returned %d results for %d jobs", len(br.Results), total)
	}
	if br.Accepted != total-len(invalid) || br.Rejected != len(invalid) {
		t.Fatalf("tally accepted=%d rejected=%d, want %d/%d", br.Accepted, br.Rejected, total-len(invalid), len(invalid))
	}
	shards := make(map[string]int)
	for i, item := range br.Results {
		if item.Index != i {
			t.Fatalf("result %d carries index %d: input order must be preserved", i, item.Index)
		}
		if invalid[i] {
			if item.Code != http.StatusBadRequest || item.Error == "" {
				t.Errorf("invalid item %d: %+v, want a per-item 400", i, item)
			}
			continue
		}
		if item.Code != http.StatusAccepted && item.Code != http.StatusOK {
			t.Errorf("item %d: code %d %q", i, item.Code, item.Error)
			continue
		}
		if item.Status == nil || item.Status.ID == "" {
			t.Errorf("item %d accepted but has no status", i)
			continue
		}
		shards[item.Status.ID[:strings.Index(item.Status.ID, "-")]]++
	}
	if len(shards) != 2 {
		t.Errorf("batch landed on %d shards (%v), want both", len(shards), shards)
	}
	// Duplicates coalesced: same canonical key, and (if still in flight at
	// admission time) the same job ID as the original.
	origin := br.Results[0].Status
	for i := range duplicateOf0 {
		dup := br.Results[i].Status
		if dup == nil || dup.Key != origin.Key {
			t.Errorf("duplicate item %d key %v, want %v", i, dup, origin.Key)
		}
	}
	for i, item := range br.Results {
		if invalid[i] || item.Status == nil {
			continue
		}
		st := waitTerminal(t, base, item.Status.ID, 2*time.Minute)
		if st.State != jobs.StateDone {
			t.Errorf("batch job %s (item %d) ended %s (%s)", item.Status.ID, i, st.State, st.Error)
		}
	}
}

// TestClusterHandOff: kill a worker while it has a running job and queued
// jobs; after the router's health checker declares it dead, its journal is
// replayed onto the ring successor and the jobs complete under their
// ORIGINAL IDs — and an SSE tail through the router survives the failover
// via Last-Event-ID reconnect.
func TestClusterHandOff(t *testing.T) {
	victim := startShard(t, "s0", 1, true) // one worker: queued jobs stay queued
	survivor := startShard(t, "s1", 2, true)
	r, base := startRouter(t, []*shard{victim, survivor}, nil)

	ring, err := cluster.NewRing([]string{"s0", "s1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocker := pinnedSpec(t, ring, "s0", 2048, 1) // occupies s0's only worker for a long time
	small1 := pinnedSpec(t, ring, "s0", 48, 600)
	small2 := pinnedSpec(t, ring, "s0", 64, 1200)

	resp, blockerSt := submit(t, base, blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d", resp.StatusCode)
	}
	if !strings.HasPrefix(blockerSt.ID, "s0-") {
		t.Fatalf("pinned blocker landed on %s, want s0", blockerSt.ID)
	}
	// Wait until it is actually running — "killed mid-job".
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := status(t, base, blockerSt.ID, "")
		if st.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker still %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, small1St := submit(t, base, small1)
	_, small2St := submit(t, base, small2)
	for _, st := range []jobs.Status{small1St, small2St} {
		if !strings.HasPrefix(st.ID, "s0-") || st.State != jobs.StateQueued {
			t.Fatalf("pinned small job: %s %s, want queued on s0", st.ID, st.State)
		}
	}

	// Open an SSE tail for a queued job through the router before the
	// crash, as mwctail would.
	sseResp, err := http.Get(base + "/v1/jobs/" + small1St.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("pre-crash SSE: HTTP %d", sseResp.StatusCode)
	}

	victim.kill()

	// Two failed sweeps (FailAfter=2) declare the shard dead and replay
	// its journal synchronously.
	r.CheckAll(context.Background())
	r.CheckAll(context.Background())

	topo := topology(t, base)
	for _, wk := range topo.Workers {
		if wk.Name == "s0" && (!wk.Dead || !wk.HandOff) {
			t.Fatalf("s0 after kill: %+v, want dead with journal replayed", wk)
		}
	}
	if topo.Relocations != 3 {
		t.Errorf("relocations = %d, want 3 (blocker + 2 queued)", topo.Relocations)
	}

	// The pre-crash SSE stream ends with the shard-lost notice...
	var lostNotice bool
	_ = obs.ParseSSE(sseResp.Body, func(f obs.SSEFrame) error {
		if strings.HasPrefix(f.Comment, "shard connection lost") {
			lostNotice = true
		}
		return nil
	})
	sseResp.Body.Close()
	if !lostNotice {
		t.Error("pre-crash SSE tail ended without the shard-lost notice")
	}

	// ...and a reconnect through the router reaches the successor's stream
	// for the SAME job ID and follows it to completion.
	tailDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/jobs/" + small1St.ID + "/events")
		if err != nil {
			tailDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			tailDone <- fmt.Errorf("reconnect SSE: HTTP %d", resp.StatusCode)
			return
		}
		sawDone := false
		err = obs.ParseSSE(resp.Body, func(f obs.SSEFrame) error {
			if f.Data != "" && strings.Contains(f.Data, `"state":"done"`) {
				sawDone = true
			}
			return nil
		})
		if err != nil {
			tailDone <- err
			return
		}
		if !sawDone {
			tailDone <- fmt.Errorf("resumed tail never saw the done state")
			return
		}
		tailDone <- nil
	}()

	// The queued jobs finish under their original s0- IDs, marked as
	// having survived one interrupted attempt.
	for _, id := range []string{small1St.ID, small2St.ID} {
		st := waitTerminal(t, base, id, 2*time.Minute)
		if st.ID != id {
			t.Fatalf("job came back as %s, want original ID %s", st.ID, id)
		}
		if st.State != jobs.StateDone {
			t.Errorf("handed-off job %s ended %s (%s)", id, st.State, st.Error)
		}
		if st.InterruptedAttempts != 1 {
			t.Errorf("job %s InterruptedAttempts = %d, want 1", id, st.InterruptedAttempts)
		}
	}
	if err := <-tailDone; err != nil {
		t.Errorf("SSE tail across the failover: %v", err)
	}

	// The relocated blocker is controllable through the router under its
	// original ID: cancel it on the successor.
	delReq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+blockerSt.ID, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE relocated blocker: HTTP %d", delResp.StatusCode)
	}
	st := waitTerminal(t, base, blockerSt.ID, time.Minute)
	if st.State != jobs.StateCancelled && st.State != jobs.StateDone {
		t.Errorf("relocated blocker ended %s", st.State)
	}
}

// TestClusterSSEEquivalence: the stream a client sees through the router
// is byte-for-byte the stream the worker serves — same ids, events,
// payloads and close comment — and Last-Event-ID resumption works through
// the proxy.
func TestClusterSSEEquivalence(t *testing.T) {
	s0 := startShard(t, "s0", 2, false)
	_, base := startRouter(t, []*shard{s0}, nil)

	_, st := submit(t, base, ringSpec(48, 5))
	waitTerminal(t, base, st.ID, time.Minute)

	collect := func(url, lastID string) (frames []obs.SSEFrame) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
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
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		if err := obs.ParseSSE(resp.Body, func(f obs.SSEFrame) error {
			if f.Comment != "heartbeat" {
				frames = append(frames, f)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return frames
	}

	direct := collect(s0.srv.URL+"/v1/jobs/"+st.ID+"/events", "")
	viaRouter := collect(base+"/v1/jobs/"+st.ID+"/events", "")
	if len(direct) == 0 {
		t.Fatal("direct stream empty")
	}
	if len(direct) != len(viaRouter) {
		t.Fatalf("router stream has %d frames, worker has %d", len(viaRouter), len(direct))
	}
	for i := range direct {
		if direct[i] != viaRouter[i] {
			t.Fatalf("frame %d differs:\n worker: %+v\n router: %+v", i, direct[i], viaRouter[i])
		}
	}

	// Resume two events before the end, through the router: exactly the
	// missing suffix arrives.
	var eventIDs []string
	for _, f := range direct {
		if f.ID != "" {
			eventIDs = append(eventIDs, f.ID)
		}
	}
	if len(eventIDs) < 3 {
		t.Fatalf("stream too short to test resumption: %d events", len(eventIDs))
	}
	resumed := collect(base+"/v1/jobs/"+st.ID+"/events", eventIDs[len(eventIDs)-3])
	var resumedIDs []string
	for _, f := range resumed {
		if f.ID != "" {
			resumedIDs = append(resumedIDs, f.ID)
		}
	}
	want := eventIDs[len(eventIDs)-2:]
	if len(resumedIDs) != len(want) || resumedIDs[0] != want[0] || resumedIDs[1] != want[1] {
		t.Errorf("resumed event ids %v, want exactly the missing suffix %v", resumedIDs, want)
	}
	if last := resumed[len(resumed)-1]; !strings.HasPrefix(last.Comment, "stream closed") {
		t.Errorf("resumed stream's last frame %+v, want the close notice", last)
	}
}

// TestClusterDrainAwareRouting: a draining worker (readyz 503) stops
// receiving placements without being declared dead, and the router's own
// readiness reflects whether any shard can still take work.
func TestClusterDrainAwareRouting(t *testing.T) {
	s0 := startShard(t, "s0", 2, false)
	s1 := startShard(t, "s1", 2, false)
	r, base := startRouter(t, []*shard{s0, s1}, nil)

	// Re-sweep after draining s0: the router must see the 503 and mark the
	// shard draining, not dead — and must not touch its journal.
	s0.svc.SignalDrain()
	r.CheckAll(context.Background())
	topo := topology(t, base)
	for _, wk := range topo.Workers {
		switch wk.Name {
		case "s0":
			if wk.Ready || wk.Dead || !wk.Drain || wk.HandOff {
				t.Fatalf("draining s0: %+v, want not-ready draining, no journal replay", wk)
			}
		case "s1":
			if !wk.Ready {
				t.Fatalf("s1 should still be ready: %+v", wk)
			}
		}
	}

	// All new placements avoid the draining shard.
	for seed := int64(300); seed < 308; seed++ {
		resp, st := submit(t, base, ringSpec(24, seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d", seed, resp.StatusCode)
		}
		if !strings.HasPrefix(st.ID, "s1-") {
			t.Fatalf("job %s placed on the draining shard", st.ID)
		}
	}

	// Router readiness: still 200 with one shard up; 503 once both drain.
	if code := getCode(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("router readyz with one live shard: HTTP %d", code)
	}
	s1.svc.SignalDrain()
	r.CheckAll(context.Background())
	if code := getCode(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("router readyz with no live shards: HTTP %d", code)
	}
	resp2, _ := submit(t, base, ringSpec(24, 999))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no ready workers: HTTP %d, want 503", resp2.StatusCode)
	}
}

// TestClusterQoS: the router's cost gate in front of a live shard —
// tenant quotas reject over-budget submissions with 429 while other
// tenants proceed, batch items bounce off a full capacity budget, and
// terminating the admitted jobs returns their cost to the pool.
func TestClusterQoS(t *testing.T) {
	s0 := startShard(t, "s0", 2, false)

	costOf := func(spec jobs.Spec) float64 {
		info, err := spec.Inspect(0)
		if err != nil {
			t.Fatal(err)
		}
		return info.Cost
	}
	blocker := ringSpec(2048, 1) // long-running: its cost stays admitted
	blockerCost := costOf(blocker)

	// Quota: alice may hold 1.5 blockers' worth of estimated cost.
	_, quotaBase := startRouter(t, []*shard{s0}, func(cfg *cluster.Config) {
		cfg.Tenants = map[string]cluster.TenantConfig{
			"alice": {MaxOutstandingCost: 1.5 * blockerCost},
		}
	})
	asTenant := func(spec jobs.Spec, tenant string, seed int64) jobs.Spec {
		gen := *spec.Graph.Gen // Gen is a pointer: copy before reseeding
		gen.Seed = seed
		spec.Graph.Gen = &gen
		spec.Tenant = tenant
		spec.Opts.Seed = seed
		return spec
	}
	resp, aliceSt := submit(t, quotaBase, asTenant(blocker, "alice", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alice's first job: HTTP %d", resp.StatusCode)
	}
	resp, _ = submit(t, quotaBase, asTenant(blocker, "alice", 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota rejection carries no Retry-After")
	}
	resp, bobSt := submit(t, quotaBase, asTenant(blocker, "bob", 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob, unrelated tenant: HTTP %d, want 202", resp.StatusCode)
	}

	// Capacity: a second router whose whole budget barely fits one blocker.
	// The blocker is already running on the shard, so re-submitting it
	// through this router dedups server-side but still holds its cost here.
	_, capBase := startRouter(t, []*shard{s0}, func(cfg *cluster.Config) {
		cfg.QoSCapacity = blockerCost + 1
	})
	resp, _ = submit(t, capBase, asTenant(blocker, "alice", 1))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("blocker through the capacity router: HTTP %d", resp.StatusCode)
	}
	var batch jobs.BatchRequest
	batch.Jobs = append(batch.Jobs, ringSpec(24, 50), ringSpec(24, 51))
	body, _ := json.Marshal(batch)
	bresp, err := http.Post(capBase+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br jobs.BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 0 || br.Rejected != 2 {
		t.Fatalf("batch against a full budget: accepted=%d rejected=%d, want 0/2", br.Accepted, br.Rejected)
	}
	for _, item := range br.Results {
		if item.Code != http.StatusTooManyRequests {
			t.Errorf("bounced item %d: code %d, want 429", item.Index, item.Code)
		}
	}

	// Cancel the admitted jobs: the watchers see the terminal states and
	// the budget drains on both routers.
	for _, id := range []string{aliceSt.ID, bobSt.ID} {
		req, _ := http.NewRequest(http.MethodDelete, quotaBase+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitTerminal(t, quotaBase, id, time.Minute)
	}
	for _, base := range []string{quotaBase, capBase} {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(raw), "mwcrouter_qos_inflight_cost 0\n") {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("QoS budget never drained; metrics:\n%s", raw)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestClusterQoSCancelQueuedReleasesCost: a job cancelled while still
// queued on its shard — it never started running — must release its QoS
// cost reservation. A leak here is permanent: the cancelled job can never
// reach a terminal state "naturally", so the tenant's outstanding quota
// would stay consumed until exhaustion.
func TestClusterQoSCancelQueuedReleasesCost(t *testing.T) {
	s0 := startShard(t, "s0", 1, false) // one worker: the blocker pins it

	costOf := func(spec jobs.Spec) float64 {
		info, err := spec.Inspect(0)
		if err != nil {
			t.Fatal(err)
		}
		return info.Cost
	}
	blocker := ringSpec(2048, 11)
	blockerCost := costOf(blocker)

	// carol's quota fits two blockers but not three.
	_, base := startRouter(t, []*shard{s0}, func(cfg *cluster.Config) {
		cfg.Tenants = map[string]cluster.TenantConfig{
			"carol": {MaxOutstandingCost: 2.5 * blockerCost},
		}
	})
	asCarol := func(seed int64) jobs.Spec {
		spec := blocker
		gen := *spec.Graph.Gen
		gen.Seed = seed
		spec.Graph.Gen = &gen
		spec.Tenant = "carol"
		spec.Opts.Seed = seed
		return spec
	}

	resp, runningSt := submit(t, base, asCarol(11))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d", resp.StatusCode)
	}
	resp, queuedSt := submit(t, base, asCarol(12))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: HTTP %d", resp.StatusCode)
	}
	// Quota check: two blockers outstanding, a third bounces.
	resp, _ = submit(t, base, asCarol(13))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job over quota: HTTP %d, want 429", resp.StatusCode)
	}

	// Cancel the queued job — the single worker is still busy with the
	// blocker, so it cannot have started.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+queuedSt.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	st := waitTerminal(t, base, queuedSt.ID, time.Minute)
	if st.State != jobs.StateCancelled {
		t.Fatalf("queued job ended %s, want cancelled", st.State)
	}
	if st.Started != nil {
		t.Fatalf("job %s ran before cancellation; this test needs a queued cancel", queuedSt.ID)
	}

	// The reservation must come back: the bounced job is admittable now.
	var thirdSt jobs.Status
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, st := submit(t, base, asCarol(13))
		if resp.StatusCode == http.StatusAccepted {
			thirdSt = st
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quota never freed after queued cancel: HTTP %d", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Cancel everything and confirm the whole budget drains to zero.
	for _, id := range []string{runningSt.ID, thirdSt.ID} {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(raw), "mwcrouter_qos_inflight_cost 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("QoS budget never drained after cancels; metrics:\n%s", raw)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// sessionSpec is the session workhorse: a unit triangle (MWC 3) with a
// heavy path hanging off it, so off-witness edits exist.
func sessionSpec() jobs.Spec {
	return jobs.Spec{
		Graph: jobs.GraphSpec{Class: "uw", N: 6, Edges: []jobs.Edge{
			{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 1},
			{From: 2, To: 3, Weight: 10}, {From: 3, To: 4, Weight: 10},
			{From: 4, To: 5, Weight: 10}, {From: 5, To: 0, Weight: 10},
		}},
		Algo: jobs.AlgoExact,
	}
}

// sessionStatus GETs one session through the router.
func sessionStatus(t *testing.T, base, id, query string) (int, session.Status) {
	t.Helper()
	url := base + "/v1/graphs/" + id
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st session.Status
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitSessionClean long-polls a session's answer through the router until
// it is clean.
func waitSessionClean(t *testing.T, base, id string, timeout time.Duration) session.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, st := sessionStatus(t, base, id+"/mwc", "wait=2s")
		if code == http.StatusOK && st.State == session.StateClean {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never clean through the router: HTTP %d %+v", id, code, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// patchSession applies one batch through the router.
func patchSession(t *testing.T, base, id string, ops []session.Op) (int, session.PatchResult) {
	t.Helper()
	body, err := json.Marshal(session.PatchRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/graphs/"+id, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr session.PatchResult
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, pr
}

// TestClusterSessionHandOff: a dynamic graph session opened through the
// router keeps answering after its shard dies — the router adopts the
// durable session record onto the survivor (PUT /v1/graphs/{id}), the
// generation bumps (fencing any stale SSE resume points), and both cached
// answers and post-hand-off PATCHes flow through the original session ID.
func TestClusterSessionHandOff(t *testing.T) {
	s0 := startShard(t, "s0", 2, true)
	s1 := startShard(t, "s1", 2, true)
	shards := []*shard{s0, s1}
	r, base := startRouter(t, shards, nil)

	body, err := json.Marshal(sessionSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created session.Status
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.ID == "" {
		t.Fatalf("create via router: HTTP %d %+v", resp.StatusCode, created)
	}
	st := waitSessionClean(t, base, created.ID, time.Minute)
	if st.Result.Weight != 3 {
		t.Fatalf("initial answer %+v, want weight 3", st.Result)
	}

	// An off-witness edit through the router is absorbed without recompute.
	code, pr := patchSession(t, base, created.ID, []session.Op{
		{Op: session.OpReweight, From: 3, To: 4, Weight: 30},
	})
	if code != http.StatusOK || !pr.WitnessKept {
		t.Fatalf("off-witness patch via router: HTTP %d %+v", code, pr)
	}

	owner, survivor := s0, s1
	if strings.HasPrefix(created.ID, "s1-") {
		owner, survivor = s1, s0
	}
	owner.kill()

	// Sweep until the dead shard crosses FailAfter and its sessions are
	// adopted; the session must resolve through the router again.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r.CheckAll(context.Background())
		code, st = sessionStatus(t, base, created.ID, "")
		if code == http.StatusOK && st.Generation > created.Generation {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never adopted: HTTP %d %+v", created.ID, code, st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.Version != 2 || st.ResultVersion != 2 {
		t.Fatalf("adopted session lost the patched state: %+v", st)
	}
	if _, err := survivor.mgr.Get(created.ID); err != nil {
		t.Fatalf("survivor %s does not own the session: %v", survivor.name, err)
	}
	st = waitSessionClean(t, base, created.ID, time.Minute)
	if st.Result.Weight != 3 {
		t.Fatalf("answer after hand-off %+v, want weight 3", st.Result)
	}

	// The survivor recomputes on an invalidating edit, still via the
	// original ID through the router.
	code, pr = patchSession(t, base, created.ID, []session.Op{
		{Op: session.OpReweight, From: 0, To: 1, Weight: 4},
	})
	if code != http.StatusOK || pr.WitnessKept {
		t.Fatalf("on-witness patch after hand-off: HTTP %d %+v", code, pr)
	}
	st = waitSessionClean(t, base, created.ID, time.Minute)
	if st.Result.Weight != 6 {
		t.Fatalf("recomputed answer after hand-off %+v, want weight 6", st.Result)
	}
}
