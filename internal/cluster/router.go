package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"congestmwc/internal/jobs"
	"congestmwc/internal/store"
)

// WorkerConfig names one mwcd worker shard. Name must equal the -shard
// identity the worker was started with: the worker mints job IDs as
// "<name>-j-<seq>", and the router routes per-job requests back to the
// shard named in the ID prefix.
type WorkerConfig struct {
	// Name is the shard identity ("s0"), unique within the cluster.
	Name string `json:"name"`
	// URL is the worker's base HTTP address ("http://10.0.0.1:8356").
	URL string `json:"url"`
	// DataDir is the worker's WAL directory as visible to the ROUTER
	// (shared filesystem). When set, a dead shard's unfinished jobs are
	// replayed from its journal onto the ring successor; when empty the
	// shard's pending jobs are stranded until the shard itself restarts
	// and recovers them.
	DataDir string `json:"dataDir,omitempty"`
}

// Config configures a Router.
type Config struct {
	// Workers is the cluster topology. At least one.
	Workers []WorkerConfig
	// Vnodes is the consistent-hash vnode count (default DefaultVnodes).
	Vnodes int
	// CheckInterval is the health-sweep period (default 2s).
	CheckInterval time.Duration
	// CheckTimeout bounds one /readyz probe (default 2s).
	CheckTimeout time.Duration
	// FailAfter is the consecutive probe failures before a worker is
	// declared dead and its journal replayed (default 3).
	FailAfter int
	// MaxN caps admitted instance sizes, mirroring the workers' -max-n
	// (<= 0 disables). Routers reject oversized specs without a round trip.
	MaxN int
	// MaxBatchItems caps one jobs:batch request (default 256).
	MaxBatchItems int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// QoSCapacity is the cluster-wide in-flight estimated-cost budget
	// gating dispatch (<= 0 = unbounded: jobs dispatch immediately and
	// only tenant quotas apply).
	QoSCapacity float64
	// Tenants is the per-tenant QoS policy (weight, outstanding quota).
	Tenants map[string]TenantConfig
	// Client performs worker requests (default http.DefaultClient).
	Client *http.Client
	// Logger receives health and hand-off events (default slog.Default()).
	Logger *slog.Logger
}

// Router is the cluster front door: it owns the placement ring, the
// health view of every worker, the relocation table built by journal
// hand-offs, and the QoS gate. Its Handler proxies the mwcd job API.
type Router struct {
	cfg     Config
	ring    *Ring
	workers map[string]*worker
	qos     *FairQueue
	client  *http.Client
	log     *slog.Logger

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	mu        sync.RWMutex
	relocated map[string]string // job ID -> shard now owning it

	submissions     atomic.Uint64
	sessions        atomic.Uint64
	batchJobs       atomic.Uint64
	proxied         atomic.Uint64
	sseStreams      atomic.Uint64
	handoffs        atomic.Uint64
	handoffJobs     atomic.Uint64
	handoffSessions atomic.Uint64
	handoffFailures atomic.Uint64
}

// worker is the router's live view of one shard.
type worker struct {
	cfg    WorkerConfig
	ready  atomic.Bool // accepting new placements (last probe was 200)
	placed atomic.Uint64

	mu        sync.Mutex // guards the checker state below
	fails     int
	dead      bool
	draining  bool
	handedOff bool
}

// New validates the topology and builds a Router. Workers start
// not-ready: run Start (which sweeps immediately, then periodically) or
// call CheckAll once before serving.
func New(cfg Config) (*Router, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	names := make([]string, 0, len(cfg.Workers))
	workers := make(map[string]*worker, len(cfg.Workers))
	for _, wc := range cfg.Workers {
		if wc.Name == "" || wc.URL == "" {
			return nil, fmt.Errorf("cluster: worker needs both a name and a URL: %+v", wc)
		}
		if strings.ContainsAny(wc.Name, "-/ ") {
			// "-" would make the ID prefix ambiguous ("a-b-j-1": shard "a-b"
			// or a job of shard "a" named "b-j-1"?); keep names simple.
			return nil, fmt.Errorf("cluster: worker name %q may not contain '-', '/' or spaces", wc.Name)
		}
		if _, dup := workers[wc.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker name %q", wc.Name)
		}
		wc.URL = strings.TrimRight(wc.URL, "/")
		workers[wc.Name] = &worker{cfg: wc}
		names = append(names, wc.Name)
	}
	ring, err := NewRing(names, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 2 * time.Second
	}
	if cfg.CheckTimeout <= 0 {
		cfg.CheckTimeout = 2 * time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Router{
		cfg:       cfg,
		ring:      ring,
		workers:   workers,
		qos:       NewFairQueue(cfg.QoSCapacity, cfg.Tenants),
		client:    client,
		log:       log,
		ctx:       ctx,
		cancel:    cancel,
		relocated: make(map[string]string),
	}, nil
}

// Start sweeps every worker once, then keeps sweeping on CheckInterval
// until Close.
func (r *Router) Start() {
	r.CheckAll(r.ctx)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(r.cfg.CheckInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				r.CheckAll(r.ctx)
			case <-r.ctx.Done():
				return
			}
		}
	}()
}

// Close stops the health loop and the cost watchers. Idempotent.
func (r *Router) Close() {
	r.once.Do(r.cancel)
	r.wg.Wait()
}

// CheckAll probes every worker's /readyz once, concurrently, updating the
// health view and triggering journal hand-off for workers that just
// crossed the dead threshold. It is the health loop's body, exported so
// tests and operators (via Start's first sweep) get a deterministic
// synchronous sweep.
func (r *Router) CheckAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, wk := range r.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			r.checkOne(ctx, wk)
		}(wk)
	}
	wg.Wait()
}

// checkOne probes one worker and folds the result into its state machine:
//
//	200             ready (fails reset; a returned shard is trusted again)
//	503             alive but draining: stop placing, do NOT replay its
//	                journal — the shard is finishing its own queue
//	error / other   one strike; FailAfter consecutive strikes = dead:
//	                stop placing AND replay its journal onto the ring
func (r *Router) checkOne(ctx context.Context, wk *worker) {
	ctx, cancelProbe := context.WithTimeout(ctx, r.cfg.CheckTimeout)
	defer cancelProbe()
	var code int
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.cfg.URL+"/readyz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = r.client.Do(req); err == nil {
			code = resp.StatusCode
			resp.Body.Close()
		}
	}

	wk.mu.Lock()
	switch {
	case err == nil && code == http.StatusOK:
		if wk.dead {
			r.log.Info("cluster: worker back", "worker", wk.cfg.Name)
		}
		wk.fails, wk.dead, wk.draining, wk.handedOff = 0, false, false, false
		wk.ready.Store(true)
		wk.mu.Unlock()
		return
	case err == nil && code == http.StatusServiceUnavailable:
		if !wk.draining {
			r.log.Info("cluster: worker draining", "worker", wk.cfg.Name)
		}
		wk.fails, wk.draining = 0, true
		wk.ready.Store(false)
		wk.mu.Unlock()
		return
	}
	wk.fails++
	wk.ready.Store(false)
	needHandOff := false
	if wk.fails >= r.cfg.FailAfter && !wk.dead {
		wk.dead = true
		if wk.cfg.DataDir != "" && !wk.handedOff {
			wk.handedOff = true
			needHandOff = true
		}
		r.log.Warn("cluster: worker dead", "worker", wk.cfg.Name,
			"fails", wk.fails, "err", err, "code", code, "handoff", needHandOff)
	}
	wk.mu.Unlock()
	if needHandOff {
		r.handOff(wk)
	}
}

// isReady is the ring's health predicate.
func (r *Router) isReady(name string) bool {
	wk := r.workers[name]
	return wk != nil && wk.ready.Load()
}

// anyReady reports whether the cluster can place anything at all.
func (r *Router) anyReady() bool {
	for _, wk := range r.workers {
		if wk.ready.Load() {
			return true
		}
	}
	return false
}

// ownerOf resolves a job or session ID to the shard that owns it now: the
// relocation table first (a handed-off ID lives on its successor), then
// the ID's shard prefix — "<shard>-j-<seq>" for jobs, "<shard>-g-<seq>"
// for dynamic graph sessions. Nil for IDs naming no known shard.
func (r *Router) ownerOf(id string) *worker {
	r.mu.RLock()
	name, relocated := r.relocated[id]
	r.mu.RUnlock()
	if !relocated {
		i := strings.LastIndex(id, "j-")
		if j := strings.LastIndex(id, "g-"); j > i {
			i = j
		}
		if i <= 0 {
			return nil
		}
		name = strings.TrimSuffix(id[:i], "-")
	}
	return r.workers[name]
}

// handOff replays a dead shard's durable state: every job that was queued
// or running on it is re-admitted, under its original ID, on the ring
// successor among the ready workers, and every open dynamic graph session
// is adopted (PUT /v1/graphs/{id}) by a successor, which bumps the
// session's generation and recomputes any in-flight answer. Job placement
// is by the job's canonical key, so a handed-off job still dedups against
// identical work on its new shard; session placement is by the session ID,
// which is stable across any number of hand-offs. Requires the shard's
// DataDir on a filesystem the router can read.
func (r *Router) handOff(dead *worker) {
	r.handoffs.Add(1)
	pending, err := store.ReadPending(dead.cfg.DataDir)
	if err != nil {
		r.handoffFailures.Add(1)
		r.log.Error("cluster: hand-off journal read failed",
			"worker", dead.cfg.Name, "dir", dead.cfg.DataDir, "err", err)
		return
	}
	r.log.Info("cluster: replaying journal", "worker", dead.cfg.Name, "jobs", len(pending))
	for _, rec := range pending {
		if err := r.handOffJob(rec); err != nil {
			r.handoffFailures.Add(1)
			r.log.Error("cluster: hand-off failed", "job", rec.ID, "err", err)
		}
	}
	sessions, err := store.ReadSessionsDir(dead.cfg.DataDir)
	if err != nil {
		r.handoffFailures.Add(1)
		r.log.Error("cluster: hand-off session read failed",
			"worker", dead.cfg.Name, "dir", dead.cfg.DataDir, "err", err)
		return
	}
	if len(sessions) > 0 {
		r.log.Info("cluster: relocating sessions", "worker", dead.cfg.Name, "sessions", len(sessions))
	}
	for _, rec := range sessions {
		if err := r.handOffSession(rec); err != nil {
			r.handoffFailures.Add(1)
			r.log.Error("cluster: session hand-off failed", "session", rec.ID, "err", err)
		}
	}
}

// handOffSession adopts one durable session record onto a ready successor.
func (r *Router) handOffSession(rec *store.SessionRecord) error {
	target, ok := r.ring.LookupHealthy(rec.ID, r.isReady)
	if !ok {
		return fmt.Errorf("no ready worker to take session %s", rec.ID)
	}
	wk := r.workers[target]
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	ctx, cancelPut := context.WithTimeout(r.ctx, 10*time.Second)
	defer cancelPut()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		wk.cfg.URL+"/v1/graphs/"+rec.ID, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("worker %s: %s", target, resp.Status)
	}
	r.mu.Lock()
	r.relocated[rec.ID] = target
	r.mu.Unlock()
	r.handoffSessions.Add(1)
	r.log.Info("cluster: session handed off", "session", rec.ID, "to", target, "version", rec.Version)
	return nil
}

func (r *Router) handOffJob(rec jobs.RecoveredJob) error {
	info, err := rec.Spec.Inspect(r.cfg.MaxN)
	if err != nil {
		return fmt.Errorf("inspect: %w", err)
	}
	target, ok := r.ring.LookupHealthy(info.Key, r.isReady)
	if !ok {
		return fmt.Errorf("no ready worker to take job %s", rec.ID)
	}
	wk := r.workers[target]
	body, err := json.Marshal(jobs.HandOffRequest{Spec: rec.Spec, Interrupted: rec.Interrupted})
	if err != nil {
		return err
	}
	ctx, cancelPut := context.WithTimeout(r.ctx, 10*time.Second)
	defer cancelPut()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		wk.cfg.URL+"/v1/jobs/"+rec.ID, strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s: %s", target, resp.Status)
	}
	r.mu.Lock()
	r.relocated[rec.ID] = target
	r.mu.Unlock()
	r.handoffJobs.Add(1)
	r.log.Info("cluster: job handed off", "job", rec.ID, "to", target, "interrupted", rec.Interrupted)
	return nil
}

// watchCost holds one admitted job's QoS cost until the job reaches a
// terminal state (long-polling its owning shard, following relocations),
// then releases it. The hold is abandoned — cost released — when the
// router closes, when the job vanishes, or after repeated polling
// failures with no relocation in sight; leaking budget forever would be
// worse than briefly under-counting.
func (r *Router) watchCost(id string, release func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer release()
		fails := 0
		for fails < 8 {
			wk := r.ownerOf(id)
			if wk == nil {
				return
			}
			req, err := http.NewRequestWithContext(r.ctx, http.MethodGet,
				wk.cfg.URL+"/v1/jobs/"+id+"?wait=30s", nil)
			if err != nil {
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				if r.ctx.Err() != nil {
					return
				}
				fails++
				select {
				case <-time.After(r.cfg.CheckInterval):
				case <-r.ctx.Done():
					return
				}
				continue
			}
			var st jobs.Status
			decodeErr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decodeErr != nil {
				fails++
				select {
				case <-time.After(r.cfg.CheckInterval):
				case <-r.ctx.Done():
					return
				}
				continue
			}
			fails = 0
			if st.State.Terminal() {
				return
			}
		}
	}()
}

// Topology is the /v1/cluster response: the router's current view.
type Topology struct {
	Workers     []WorkerView `json:"workers"`
	Relocations int          `json:"relocations"`
}

// WorkerView is one worker's externally visible state.
type WorkerView struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Ready   bool   `json:"ready"`
	Dead    bool   `json:"dead"`
	Drain   bool   `json:"draining"`
	Placed  uint64 `json:"placed"`
	HandOff bool   `json:"journalReplayed"`
}

// topology snapshots the health view for /v1/cluster.
func (r *Router) topology() Topology {
	t := Topology{Workers: make([]WorkerView, 0, len(r.workers))}
	for _, name := range r.ring.Members() {
		wk := r.workers[name]
		wk.mu.Lock()
		t.Workers = append(t.Workers, WorkerView{
			Name:    name,
			URL:     wk.cfg.URL,
			Ready:   wk.ready.Load(),
			Dead:    wk.dead,
			Drain:   wk.draining,
			Placed:  wk.placed.Load(),
			HandOff: wk.handedOff,
		})
		wk.mu.Unlock()
	}
	r.mu.RLock()
	t.Relocations = len(r.relocated)
	r.mu.RUnlock()
	return t
}
