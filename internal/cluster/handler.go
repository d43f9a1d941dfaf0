package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"congestmwc/internal/httpx"
	"congestmwc/internal/jobs"
)

// Handler exposes the cluster over the same wire API as a single mwcd
// (docs/SERVER.md "Cluster deployment"), so clients — including mwctail —
// cannot tell a router from a worker:
//
//	POST   /v1/jobs             place by canonical key, QoS-gate, forward
//	POST   /v1/jobs:batch       split across owning shards, merged per-item statuses
//	GET    /v1/jobs             union of every live shard's job list
//	GET    /v1/jobs/{id}        proxy to the owning shard (?wait= passes through)
//	GET    /v1/jobs/{id}/events SSE fan-in: proxied byte-for-byte from the shard
//	DELETE /v1/jobs/{id}        proxy to the owning shard
//	POST   /v1/graphs           open a dynamic session: place by initial-graph key, forward
//	GET    /v1/graphs           union of every live shard's session list
//	*      /v1/graphs/{id}...   proxy to the owning shard (status, PATCH, mwc, events, DELETE)
//	GET    /v1/cluster          topology and health view
//	GET    /healthz             router liveness
//	GET    /readyz              200 while at least one shard accepts work
//	GET    /metrics             router + QoS metrics
//
// Session IDs carry the shard prefix like job IDs ("s0-g-00000001"), so
// per-session requests route the same way; after a dead shard's sessions
// are adopted by successors the relocation table takes precedence.
func (r *Router) Handler() http.Handler {
	maxBody := r.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	maxBatch := r.cfg.MaxBatchItems
	if maxBatch <= 0 {
		maxBatch = 256
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		req.Body = http.MaxBytesReader(w, req.Body, maxBody)
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		var spec jobs.Spec
		if err := dec.Decode(&spec); err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
			return
		}
		r.submissions.Add(1)
		info, err := spec.Inspect(r.cfg.MaxN)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		target, ok := r.ring.LookupHealthy(info.Key, r.isReady)
		if !ok {
			w.Header().Set("Retry-After", "5")
			httpx.Error(w, http.StatusServiceUnavailable, "no ready workers")
			return
		}
		est := r.est.Estimate(info)
		release, err := r.qos.Acquire(req.Context(), info.Tenant, est.Cost)
		if err != nil {
			writeQoSError(w, err)
			return
		}
		id, code := r.forwardSubmit(w, req, r.workers[target], spec)
		if code == http.StatusAccepted && id != "" {
			r.watchCost(id, release) // hold the cost until the job is terminal
		} else {
			release()
		}
	})
	mux.HandleFunc("POST /v1/jobs:batch", func(w http.ResponseWriter, req *http.Request) {
		req.Body = http.MaxBytesReader(w, req.Body, maxBody)
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		var breq jobs.BatchRequest
		if err := dec.Decode(&breq); err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid batch: "+err.Error())
			return
		}
		if len(breq.Jobs) == 0 {
			httpx.Error(w, http.StatusBadRequest, "empty batch: want {\"jobs\": [spec, ...]}")
			return
		}
		if len(breq.Jobs) > maxBatch {
			httpx.Error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch of %d jobs exceeds the %d-item limit", len(breq.Jobs), maxBatch))
			return
		}
		httpx.WriteJSON(w, http.StatusOK, r.submitBatch(req, breq.Jobs))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		all := make([]json.RawMessage, 0, 64)
		for _, name := range r.ring.Members() {
			wk := r.workers[name]
			wk.mu.Lock()
			dead := wk.dead
			wk.mu.Unlock()
			if dead {
				continue
			}
			var page struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := r.getJSON(req, wk.cfg.URL+"/v1/jobs?"+req.URL.RawQuery, &page); err != nil {
				continue // a flapping shard costs visibility, not availability
			}
			all = append(all, page.Jobs...)
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"jobs": all})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r.proxyJob(w, req, req.PathValue("id"))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r.proxyJob(w, req, req.PathValue("id"))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		r.proxyEvents(w, req, id, "/v1/jobs/"+id+"/events")
	})
	mux.HandleFunc("POST /v1/graphs", func(w http.ResponseWriter, req *http.Request) {
		req.Body = http.MaxBytesReader(w, req.Body, maxBody)
		dec := json.NewDecoder(req.Body)
		dec.DisallowUnknownFields()
		var spec jobs.Spec
		if err := dec.Decode(&spec); err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid session spec: "+err.Error())
			return
		}
		// Sessions place like jobs: by the canonical key of the initial
		// graph. Unlike jobs there is no QoS hold — a session's cost is its
		// stream of recomputes, each of which runs on the owning shard's own
		// worker pool and admission queue.
		info, err := spec.Inspect(r.cfg.MaxN)
		if err != nil {
			httpx.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		target, ok := r.ring.LookupHealthy(info.Key, r.isReady)
		if !ok {
			w.Header().Set("Retry-After", "5")
			httpx.Error(w, http.StatusServiceUnavailable, "no ready workers")
			return
		}
		r.sessions.Add(1)
		wk := r.workers[target]
		body, err := json.Marshal(spec)
		if err != nil {
			httpx.Error(w, http.StatusInternalServerError, err.Error())
			return
		}
		out, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
			wk.cfg.URL+"/v1/graphs", bytes.NewReader(body))
		if err != nil {
			httpx.Error(w, http.StatusInternalServerError, err.Error())
			return
		}
		out.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(out)
		if err != nil {
			httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
			return
		}
		defer resp.Body.Close()
		r.proxied.Add(1)
		wk.placed.Add(1)
		copyHeader(w, resp, "Content-Type", "Retry-After")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, req *http.Request) {
		all := make([]json.RawMessage, 0, 16)
		for _, name := range r.ring.Members() {
			wk := r.workers[name]
			wk.mu.Lock()
			dead := wk.dead
			wk.mu.Unlock()
			if dead {
				continue
			}
			var page struct {
				Graphs []json.RawMessage `json:"graphs"`
			}
			if err := r.getJSON(req, wk.cfg.URL+"/v1/graphs?"+req.URL.RawQuery, &page); err != nil {
				continue // a flapping shard costs visibility, not availability
			}
			all = append(all, page.Graphs...)
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"graphs": all})
	})
	proxyGraph := func(w http.ResponseWriter, req *http.Request, suffix string) {
		r.proxySession(w, req, req.PathValue("id"), suffix, maxBody)
	}
	mux.HandleFunc("GET /v1/graphs/{id}", func(w http.ResponseWriter, req *http.Request) {
		proxyGraph(w, req, "")
	})
	mux.HandleFunc("PATCH /v1/graphs/{id}", func(w http.ResponseWriter, req *http.Request) {
		proxyGraph(w, req, "")
	})
	mux.HandleFunc("DELETE /v1/graphs/{id}", func(w http.ResponseWriter, req *http.Request) {
		proxyGraph(w, req, "")
	})
	mux.HandleFunc("GET /v1/graphs/{id}/mwc", func(w http.ResponseWriter, req *http.Request) {
		proxyGraph(w, req, "/mwc")
	})
	mux.HandleFunc("GET /v1/graphs/{id}/events", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		r.proxyEvents(w, req, id, "/v1/graphs/"+id+"/events")
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, req *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, r.topology())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		if !r.anyReady() {
			w.Header().Set("Retry-After", "5")
			httpx.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "workers": 0})
			return
		}
		n := 0
		for _, wk := range r.workers {
			if wk.ready.Load() {
				n++
			}
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "workers": n})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.writeMetrics(w)
	})
	return mux
}

// forwardSubmit proxies one placed spec to its worker and relays the
// response, returning the assigned job ID (if any) and the status code.
func (r *Router) forwardSubmit(w http.ResponseWriter, req *http.Request, wk *worker, spec jobs.Spec) (string, int) {
	body, err := json.Marshal(spec)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return "", http.StatusInternalServerError
	}
	out, err := http.NewRequestWithContext(req.Context(), http.MethodPost,
		wk.cfg.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return "", http.StatusInternalServerError
	}
	out.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(out)
	if err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
		return "", http.StatusBadGateway
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	wk.placed.Add(1)
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
		return "", http.StatusBadGateway
	}
	copyHeader(w, resp, "Content-Type", "Retry-After")
	w.WriteHeader(resp.StatusCode)
	w.Write(raw)
	var st jobs.Status
	if json.Unmarshal(raw, &st) == nil {
		return st.ID, resp.StatusCode
	}
	return "", resp.StatusCode
}

// submitBatch places every item, gates each through the QoS budget
// (non-blocking: backpressure is reported per item, not by stalling the
// batch), forwards per-shard sub-batches, and merges the worker responses
// back into input order.
func (r *Router) submitBatch(req *http.Request, specs []jobs.Spec) jobs.BatchResponse {
	type plan struct {
		index   int
		spec    jobs.Spec
		release func()
	}
	resp := jobs.BatchResponse{Results: make([]jobs.BatchItem, len(specs))}
	perWorker := make(map[*worker][]plan)
	for i, spec := range specs {
		r.batchJobs.Add(1)
		item := jobs.BatchItem{Index: i}
		info, err := spec.Inspect(r.cfg.MaxN)
		if err != nil {
			item.Code, item.Error = http.StatusBadRequest, err.Error()
			resp.Results[i] = item
			continue
		}
		target, ok := r.ring.LookupHealthy(info.Key, r.isReady)
		if !ok {
			item.Code, item.Error = http.StatusServiceUnavailable, "no ready workers"
			resp.Results[i] = item
			continue
		}
		release, err := r.qos.TryAcquire(info.Tenant, r.est.Estimate(info).Cost)
		if err != nil {
			item.Code, item.Error = http.StatusTooManyRequests, err.Error()
			resp.Results[i] = item
			continue
		}
		wk := r.workers[target]
		perWorker[wk] = append(perWorker[wk], plan{index: i, spec: spec, release: release})
	}
	for wk, plans := range perWorker {
		sub := jobs.BatchRequest{Jobs: make([]jobs.Spec, len(plans))}
		for i, p := range plans {
			sub.Jobs[i] = p.spec
		}
		var wresp jobs.BatchResponse
		err := r.postJSON(req, wk.cfg.URL+"/v1/jobs:batch", sub, &wresp)
		if err == nil && len(wresp.Results) != len(plans) {
			err = fmt.Errorf("worker %s answered %d items for %d jobs", wk.cfg.Name, len(wresp.Results), len(plans))
		}
		if err != nil {
			for _, p := range plans {
				p.release()
				resp.Results[p.index] = jobs.BatchItem{
					Index: p.index, Code: http.StatusBadGateway,
					Error: fmt.Sprintf("worker %s: %v", wk.cfg.Name, err),
				}
			}
			continue
		}
		r.proxied.Add(1)
		for i, item := range wresp.Results {
			p := plans[i]
			item.Index = p.index
			resp.Results[p.index] = item
			if item.Code == http.StatusAccepted && item.Status != nil {
				wk.placed.Add(1)
				r.watchCost(item.Status.ID, p.release)
			} else {
				p.release()
			}
		}
	}
	for _, item := range resp.Results {
		if item.Error != "" {
			resp.Rejected++
		} else {
			resp.Accepted++
		}
	}
	return resp
}

// proxyJob relays a GET/DELETE for one job to its owning shard, query
// string and all.
func (r *Router) proxyJob(w http.ResponseWriter, req *http.Request, id string) {
	wk := r.ownerOf(id)
	if wk == nil {
		httpx.Error(w, http.StatusNotFound,
			fmt.Sprintf("job %q: ID names no known shard (known: %v)", id, r.ring.Members()))
		return
	}
	url := wk.cfg.URL + "/v1/jobs/" + id
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, url, nil)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := r.client.Do(out)
	if err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
		return
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	copyHeader(w, resp, "Content-Type", "Retry-After")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxySession relays one per-session request (status, PATCH, mwc,
// DELETE) to the owning shard, body, query string and all.
func (r *Router) proxySession(w http.ResponseWriter, req *http.Request, id, suffix string, maxBody int64) {
	wk := r.ownerOf(id)
	if wk == nil {
		httpx.Error(w, http.StatusNotFound,
			fmt.Sprintf("session %q: ID names no known shard (known: %v)", id, r.ring.Members()))
		return
	}
	url := wk.cfg.URL + "/v1/graphs/" + id + suffix
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	var body io.Reader
	if req.Method == http.MethodPatch {
		body = http.MaxBytesReader(w, req.Body, maxBody)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, url, body)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
		return
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	copyHeader(w, resp, "Content-Type", "Retry-After")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyEvents relays a shard's SSE stream byte-for-byte, flushing per
// read, so epoch-tagged sequence IDs, replay and the close notice survive
// the router unchanged. The client's Last-Event-ID travels upstream, which
// is what lets mwctail resume after a failover — the upstream's epoch
// fence decides whether the resume point is honored or the stream replays
// in full. If the shard connection breaks mid-stream the client gets a
// comment, then EOF — the signal to reconnect (by then the job or session
// may have been handed off and the router will route the retry to the
// successor). path is the upstream events path: /v1/jobs/{id}/events or
// /v1/graphs/{id}/events.
func (r *Router) proxyEvents(w http.ResponseWriter, req *http.Request, id, path string) {
	wk := r.ownerOf(id)
	if wk == nil {
		httpx.Error(w, http.StatusNotFound, fmt.Sprintf("%q: ID names no known shard", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpx.Error(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	out, err := http.NewRequestWithContext(req.Context(), http.MethodGet,
		wk.cfg.URL+path, nil)
	if err != nil {
		httpx.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	out.Header.Set("Accept", "text/event-stream")
	if lid := req.Header.Get("Last-Event-ID"); lid != "" {
		out.Header.Set("Last-Event-ID", lid)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		httpx.Error(w, http.StatusBadGateway, fmt.Sprintf("worker %s: %v", wk.cfg.Name, err))
		return
	}
	defer resp.Body.Close()
	r.proxied.Add(1)
	if resp.StatusCode != http.StatusOK {
		copyHeader(w, resp, "Content-Type", "Retry-After")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	r.sseStreams.Add(1)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client gone
			}
			fl.Flush()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && req.Context().Err() == nil {
				// Abrupt upstream loss (shard died mid-stream): tell the
				// client before closing so it knows to reconnect rather than
				// treat this as a clean end of stream.
				fmt.Fprint(w, "\n: shard connection lost\n\n")
				fl.Flush()
			}
			return
		}
	}
}

// getJSON / postJSON are the router's small typed client helpers.
func (r *Router) getJSON(req *http.Request, url string, v any) error {
	out, err := http.NewRequestWithContext(req.Context(), http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	r.proxied.Add(1)
	return json.NewDecoder(resp.Body).Decode(v)
}

func (r *Router) postJSON(req *http.Request, url string, body, v any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	out, err := http.NewRequestWithContext(req.Context(), http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	out.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// writeQoSError maps a QoS admission error onto the wire.
func writeQoSError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrCapacity):
		w.Header().Set("Retry-After", "1")
		httpx.Error(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client hung up while queued; nobody is listening, but end the
		// handler with a meaningful status anyway.
		httpx.Error(w, 499, err.Error())
	default:
		httpx.Error(w, http.StatusInternalServerError, err.Error())
	}
}

// writeMetrics renders the router's own metrics in the Prometheus text
// exposition format (worker health, placement, hand-off and QoS).
func (r *Router) writeMetrics(w io.Writer) {
	g, c := httpx.MetricFuncs(w)
	ready := 0
	for _, wk := range r.workers {
		if wk.ready.Load() {
			ready++
		}
	}
	g("mwcrouter_workers", "Configured worker shards.", len(r.workers))
	g("mwcrouter_workers_ready", "Shards currently accepting placements.", ready)
	fmt.Fprintf(w, "# HELP mwcrouter_worker_ready Per-shard readiness (1 ready, 0 not).\n# TYPE mwcrouter_worker_ready gauge\n")
	for _, name := range r.ring.Members() {
		v := 0
		if r.workers[name].ready.Load() {
			v = 1
		}
		fmt.Fprintf(w, "mwcrouter_worker_ready{worker=%q} %d\n", name, v)
	}
	fmt.Fprintf(w, "# HELP mwcrouter_placed_total Jobs placed per shard.\n# TYPE mwcrouter_placed_total counter\n")
	for _, name := range r.ring.Members() {
		fmt.Fprintf(w, "mwcrouter_placed_total{worker=%q} %d\n", name, r.workers[name].placed.Load())
	}
	c("mwcrouter_submissions_total", "Single-job submissions received.", r.submissions.Load())
	c("mwcrouter_sessions_total", "Dynamic graph sessions opened through the router.", r.sessions.Load())
	c("mwcrouter_batch_jobs_total", "Jobs received inside batch submissions.", r.batchJobs.Load())
	c("mwcrouter_proxied_requests_total", "Requests forwarded to workers.", r.proxied.Load())
	c("mwcrouter_sse_streams_total", "Event streams proxied.", r.sseStreams.Load())
	c("mwcrouter_handoffs_total", "Dead-shard journal replays started.", r.handoffs.Load())
	c("mwcrouter_handoff_jobs_total", "Jobs re-admitted on a ring successor.", r.handoffJobs.Load())
	c("mwcrouter_handoff_sessions_total", "Sessions adopted by a ring successor.", r.handoffSessions.Load())
	c("mwcrouter_handoff_failures_total", "Hand-off attempts that failed.", r.handoffFailures.Load())
	r.mu.RLock()
	relocated := len(r.relocated)
	r.mu.RUnlock()
	g("mwcrouter_relocated_jobs", "Jobs now owned by a shard other than the one that minted their ID.", relocated)
	qm := r.qos.Metrics()
	g("mwcrouter_qos_capacity", "In-flight estimated-cost budget (0 = unbounded).", qm.Capacity)
	g("mwcrouter_qos_inflight_cost", "Estimated cost currently admitted.", qm.Inflight)
	g("mwcrouter_qos_waiting", "Submissions queued behind the cost budget.", qm.Waiting)
	c("mwcrouter_qos_admitted_total", "Submissions admitted through the cost gate.", qm.Admitted)
	c("mwcrouter_qos_waited_total", "Submissions that had to queue for budget.", qm.Waited)
	c("mwcrouter_qos_quota_rejected_total", "Submissions rejected by a tenant quota.", qm.QuotaRejected)
	c("mwcrouter_qos_capacity_bounced_total", "Batch items bounced by the full budget.", qm.CapacityBounced)
}

func copyHeader(w http.ResponseWriter, resp *http.Response, keys ...string) {
	for _, k := range keys {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}
