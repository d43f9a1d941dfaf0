package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"congestmwc/internal/httpx"
	"congestmwc/internal/obs"
)

// HandlerConfig configures the HTTP surface of a Service.
type HandlerConfig struct {
	// MaxBodyBytes bounds request bodies (default 1 MiB). Oversized
	// submissions fail with 413.
	MaxBodyBytes int64
	// MaxWait caps the ?wait= long-poll duration on GET /v1/jobs/{id}
	// (default 30s). Longer client requests are clamped, not rejected.
	MaxWait time.Duration
	// Heartbeat is the SSE keep-alive comment interval on
	// GET /v1/jobs/{id}/events (default 15s): proxies and clients see
	// traffic even while a long phase produces no events.
	Heartbeat time.Duration
	// EventBuffer is the per-subscriber channel buffer for the events
	// endpoint (default 0 = the hub's ring size). A client slower than
	// the event rate loses the oldest undelivered events first.
	EventBuffer int
	// MaxBatchItems caps the job count of one POST /v1/jobs:batch request
	// (default 256). Larger batches are rejected whole with 413.
	MaxBatchItems int
	// ShardID is this process's cluster shard identity, echoed by
	// /readyz so routers can verify their topology. Empty for a
	// single-process deployment.
	ShardID string
}

// BatchRequest is the body of POST /v1/jobs:batch: an ordered list of job
// specs submitted in one round trip.
type BatchRequest struct {
	Jobs []Spec `json:"jobs"`
}

// BatchItem is the per-item outcome of a batch submission. Code mirrors
// the single-submit endpoint: 202 accepted, 200 cache hit, 400 invalid
// spec, 429 queue backpressure, 503 draining. Exactly one of Status and
// Error is set.
type BatchItem struct {
	Index  int     `json:"index"`
	Code   int     `json:"code"`
	Status *Status `json:"status,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// BatchResponse is the body of a batch submission response: one item per
// input spec, in input order, plus the acceptance tally. The HTTP status
// is 200 whenever the batch itself was well-formed — partial acceptance
// under backpressure is the normal case, reported per item.
type BatchResponse struct {
	Accepted int         `json:"accepted"`
	Rejected int         `json:"rejected"`
	Results  []BatchItem `json:"results"`
}

// HandOffRequest is the body of PUT /v1/jobs/{id}: a router replaying a
// dead shard's unfinished job onto this worker under its original ID.
type HandOffRequest struct {
	Spec Spec `json:"spec"`
	// Interrupted is the number of prior attempts cut short by the
	// crash(es) being recovered from.
	Interrupted int `json:"interrupted,omitempty"`
}

// NewHandler exposes the service over HTTP (the mwcd API, see
// docs/SERVER.md):
//
//	POST   /v1/jobs             submit a job (202; 200 on a cache hit; 429 on backpressure; 503 draining)
//	POST   /v1/jobs:batch       bulk submission, per-item statuses, partial acceptance
//	GET    /v1/jobs             list recent jobs (?limit=N)
//	GET    /v1/jobs/{id}        job status (?wait=5s long-polls until terminal)
//	PUT    /v1/jobs/{id}        admit a job under a given ID (cluster hand-off; idempotent)
//	GET    /v1/jobs/{id}/events live event stream (Server-Sent Events; -observe only)
//	DELETE /v1/jobs/{id}        cancel the job
//	GET    /healthz             liveness
//	GET    /readyz              readiness: 503 once draining, while /healthz stays 200
//	GET    /metrics             Prometheus-style text metrics
func NewHandler(s *Service, cfg HandlerConfig) http.Handler {
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	maxWait := cfg.MaxWait
	if maxWait <= 0 {
		maxWait = 30 * time.Second
	}
	heartbeat := cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	maxBatch := cfg.MaxBatchItems
	if maxBatch <= 0 {
		maxBatch = 256
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpx.Error(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit))
				return
			}
			httpx.Error(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
			return
		}
		if dec.More() {
			httpx.Error(w, http.StatusBadRequest, "invalid job spec: trailing data after the JSON object")
			return
		}
		j, err := s.Submit(spec)
		writeSubmitResult(w, j, err)
	})
	mux.HandleFunc("POST /v1/jobs:batch", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req BatchRequest
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpx.Error(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit))
				return
			}
			httpx.Error(w, http.StatusBadRequest, "invalid batch: "+err.Error())
			return
		}
		if dec.More() {
			httpx.Error(w, http.StatusBadRequest, "invalid batch: trailing data after the JSON object")
			return
		}
		if len(req.Jobs) == 0 {
			httpx.Error(w, http.StatusBadRequest, "empty batch: want {\"jobs\": [spec, ...]}")
			return
		}
		if len(req.Jobs) > maxBatch {
			httpx.Error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch of %d jobs exceeds the %d-item limit", len(req.Jobs), maxBatch))
			return
		}
		resp := BatchResponse{Results: make([]BatchItem, len(req.Jobs))}
		for i, spec := range req.Jobs {
			item := BatchItem{Index: i}
			j, err := s.Submit(spec)
			switch {
			case errors.Is(err, ErrQueueFull):
				item.Code, item.Error = http.StatusTooManyRequests, err.Error()
			case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
				item.Code, item.Error = http.StatusServiceUnavailable, err.Error()
			case err != nil:
				item.Code, item.Error = http.StatusBadRequest, err.Error()
			default:
				st := j.Status()
				item.Status = &st
				item.Code = http.StatusAccepted
				if st.State.Terminal() {
					item.Code = http.StatusOK
				}
			}
			if item.Error != "" {
				resp.Rejected++
			} else {
				resp.Accepted++
			}
			resp.Results[i] = item
		}
		httpx.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("PUT /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		var req HandOffRequest
		if err := dec.Decode(&req); err != nil {
			httpx.Error(w, http.StatusBadRequest, "invalid hand-off request: "+err.Error())
			return
		}
		j, err := s.SubmitWithID(r.PathValue("id"), req.Spec, req.Interrupted)
		writeSubmitResult(w, j, err)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var limit int
		if raw := r.URL.Query().Get("limit"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				httpx.Error(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q: not an integer", raw))
				return
			}
			limit = v
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"jobs": s.List(limit)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Get(r.PathValue("id"))
		if err != nil {
			httpx.Error(w, http.StatusNotFound, err.Error())
			return
		}
		if raw := r.URL.Query().Get("wait"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil || d < 0 {
				httpx.Error(w, http.StatusBadRequest,
					fmt.Sprintf("invalid wait %q: want a non-negative Go duration like 5s", raw))
				return
			}
			if d > maxWait {
				d = maxWait
			}
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			// Long-poll: block until the job is terminal or the (clamped)
			// wait elapses; either way the response is the current status.
			st, _ := j.Wait(ctx)
			httpx.WriteJSON(w, http.StatusOK, st)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Get(r.PathValue("id"))
		if err != nil {
			httpx.Error(w, http.StatusNotFound, err.Error())
			return
		}
		sub := j.Subscribe(cfg.EventBuffer)
		if sub == nil {
			httpx.Error(w, http.StatusConflict,
				"job event streaming is disabled: start the service with observability on (mwcd -observe)")
			return
		}
		obs.ServeSSE(w, r, sub, j.Epoch(), heartbeat, s.Draining())
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpx.Error(w, http.StatusNotFound, err.Error())
			return
		}
		httpx.WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness flips to 503 the moment SignalDrain fires — before the
		// HTTP listener stops — so routers and external load balancers stop
		// routing new work here while /healthz still answers 200 for the
		// remaining drain window.
		select {
		case <-s.Draining():
			w.Header().Set("Retry-After", "5")
			httpx.WriteJSON(w, http.StatusServiceUnavailable,
				map[string]any{"ready": false, "draining": true, "shard": cfg.ShardID})
		default:
			httpx.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "shard": cfg.ShardID})
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, s.Metrics())
	})
	return mux
}

// writeSubmitResult maps one Submit/SubmitWithID outcome onto the wire:
// 202 accepted, 200 terminal at birth (cache hit or idempotent re-admit),
// 429 + Retry-After on queue backpressure, 503 + Retry-After while
// draining (distinct signals: 429 means "this shard is busy, retry here";
// 503 means "this shard is going away, go elsewhere"), 400 otherwise.
func writeSubmitResult(w http.ResponseWriter, j *Job, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpx.Error(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		httpx.Error(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrClosed):
		httpx.Error(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpx.Error(w, http.StatusBadRequest, err.Error())
	default:
		st := j.Status()
		code := http.StatusAccepted
		if st.State.Terminal() {
			code = http.StatusOK // answered from the result cache
		}
		httpx.WriteJSON(w, code, st)
	}
}

// WriteMetrics renders the metrics snapshot in the Prometheus text
// exposition format.
func WriteMetrics(w io.Writer, m Metrics) {
	g, c := httpx.MetricFuncs(w)
	fnum := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	h := func(name, help string, hs HistogramSnapshot) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i, b := range hs.Bounds {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fnum(b), hs.Counts[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, hs.Count)
		fmt.Fprintf(w, "%s_sum %s\n", name, fnum(hs.Sum))
		fmt.Fprintf(w, "%s_count %d\n", name, hs.Count)
	}
	fmt.Fprintf(w, "# HELP mwcd_build_info Build identity, value is always 1.\n"+
		"# TYPE mwcd_build_info gauge\nmwcd_build_info{version=%q,goversion=%q} 1\n",
		orUnknown(m.BuildVersion), orUnknown(m.GoVersion))
	g("mwcd_uptime_seconds", "Seconds since the job service started.", fnum(m.UptimeSeconds))
	g("mwcd_queue_depth", "Jobs waiting in the admission queue.", m.QueueDepth)
	g("mwcd_queue_capacity", "Admission queue capacity.", m.QueueCap)
	g("mwcd_workers", "Worker pool size.", m.Workers)
	g("mwcd_workers_busy", "Workers currently executing a job.", m.BusyWorkers)
	g("mwcd_worker_utilization", "Busy workers / pool size.", strconv.FormatFloat(m.Utilization, 'f', -1, 64))
	c("mwcd_jobs_submitted_total", "Jobs admitted (including cache hits).", m.Submitted)
	c("mwcd_jobs_deduped_total", "Submissions answered by an identical in-flight job.", m.Deduped)
	c("mwcd_jobs_rejected_total", "Submissions rejected by queue backpressure.", m.Rejected)
	c("mwcd_jobs_done_total", "Jobs completed successfully.", m.Done)
	c("mwcd_jobs_failed_total", "Jobs that ended in an error.", m.Failed)
	c("mwcd_jobs_cancelled_total", "Jobs cancelled before completion.", m.Cancelled)
	c("mwcd_jobs_expired_total", "Jobs stopped by their deadline.", m.Expired)
	g("mwcd_cache_entries", "Result-cache entries resident.", m.CacheEntries)
	c("mwcd_cache_hits_total", "Result-cache hits.", m.CacheHits)
	c("mwcd_cache_misses_total", "Result-cache misses.", m.CacheMisses)
	c("mwcd_cache_evictions_total", "Result-cache LRU evictions.", m.CacheEvictions)
	g("mwcd_cache_hit_ratio", "Hits / (hits + misses).", strconv.FormatFloat(m.CacheHitRatio, 'f', -1, 64))
	h("mwcd_job_queue_wait_seconds", "Seconds jobs spent queued before a worker picked them up.", m.JobQueueWaitSeconds)
	h("mwcd_job_run_seconds", "Seconds jobs spent executing, start to terminal state.", m.JobRunSeconds)
	h("mwcd_job_rounds", "CONGEST rounds simulated per job.", m.JobRounds)
	h("mwcd_job_messages", "Messages delivered per job.", m.JobMessages)
	c("mwcd_rounds_simulated_total", "CONGEST rounds executed across all jobs.", m.RoundsSimulated)
	c("mwcd_messages_simulated_total", "Messages delivered across all jobs.", m.MessagesSimulated)
	c("mwcd_words_simulated_total", "Words delivered across all jobs.", m.WordsSimulated)
	g("mwcd_peak_link_words", "Worst single-round per-link congestion observed.", m.PeakLinkWords)
	g("mwcd_peak_queue_len", "Worst link-queue backlog observed.", m.PeakQueueLen)
	if m.Store != nil {
		g("mwcd_store_wal_bytes", "Write-ahead-journal size on disk.", m.Store.WALBytes)
		c("mwcd_store_wal_records_total", "Lifecycle events appended to the journal.", m.Store.WALRecords)
		c("mwcd_store_fsyncs_total", "fsync calls issued by the store.", m.Store.Fsyncs)
		c("mwcd_store_snapshots_total", "Snapshot + WAL compaction cycles.", m.Store.Snapshots)
		g("mwcd_store_recovered_jobs", "Interrupted jobs re-enqueued by the last recovery.", m.Store.RecoveredJobs)
		g("mwcd_store_durable_results", "Terminal results resident in the durable store.", m.Store.DurableResults)
		c("mwcd_store_durable_hits_total", "Cache misses answered from the durable result store.", m.Store.DurableHits)
		c("mwcd_store_dropped_records_total", "Events dropped because they arrived after the store closed.", m.Store.DroppedRecords)
	}
}

// orUnknown keeps label values non-empty when build info is unavailable.
func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}
