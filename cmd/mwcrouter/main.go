// Command mwcrouter fronts a cluster of mwcd worker shards: it places jobs
// by consistent hashing over the canonical graph hash (so identical specs
// dedup on one shard cluster-wide), health-checks every worker's /readyz,
// replays a dead shard's journal onto its ring successor, and proxies the
// whole mwcd job API — single submissions, the jobs:batch bulk endpoint,
// status polls, cancels, and live SSE event streams. See docs/SERVER.md
// ("Cluster deployment").
//
// Examples:
//
//	mwcrouter -addr :8360 \
//	    -worker 's0=http://10.0.0.1:8356;/var/lib/mwcd-s0' \
//	    -worker 's1=http://10.0.0.2:8356;/var/lib/mwcd-s1'
//	mwcrouter -addr :8360 -worker s0=http://127.0.0.1:8356 \
//	    -qos-capacity 5e6 -tenant 'batch=1:2e6' -tenant 'interactive=4'
//
// Each -worker names a shard and its base URL; the worker MUST have been
// started with a matching `mwcd -shard <name>` so its job IDs carry the
// shard prefix the router routes by. The optional ;dataDir is the worker's
// WAL directory as seen from the router (shared filesystem) — with it, a
// dead worker's unfinished jobs are handed off to the ring successor under
// their original IDs.
//
// -qos-capacity bounds the cluster-wide estimated cost (simulated rounds +
// messages, priced by the portfolio registry's cost model) in flight at
// once; -tenant sets per-tenant fair-queueing weights and outstanding-cost
// quotas as name=weight[:quota]. For scale: an exact, agarwal or girthapx
// job on a random n=64 graph prices at 3e4-1e5, a weighted approx job of
// that size at about 5e5, and an exact job at n=256 at about 2e6, so the
// example above runs dozens of small jobs at once and holds the batch
// tenant to about one large job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"congestmwc/internal/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mwcrouter:", err)
		os.Exit(1)
	}
}

// workerFlags collects repeated -worker flags: "name=url[;dataDir]".
type workerFlags []cluster.WorkerConfig

func (wf *workerFlags) String() string {
	parts := make([]string, 0, len(*wf))
	for _, w := range *wf {
		parts = append(parts, w.Name+"="+w.URL)
	}
	return strings.Join(parts, ",")
}

func (wf *workerFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=url[;dataDir], got %q", v)
	}
	url, dataDir, _ := strings.Cut(rest, ";")
	*wf = append(*wf, cluster.WorkerConfig{Name: name, URL: url, DataDir: dataDir})
	return nil
}

// tenantFlags collects repeated -tenant flags: "name=weight[:quota]".
type tenantFlags map[string]cluster.TenantConfig

func (tf tenantFlags) String() string {
	parts := make([]string, 0, len(tf))
	for name := range tf {
		parts = append(parts, name)
	}
	return strings.Join(parts, ",")
}

func (tf tenantFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=weight[:quota], got %q", v)
	}
	weightStr, quotaStr, hasQuota := strings.Cut(rest, ":")
	weight, err := strconv.ParseFloat(weightStr, 64)
	if err != nil || weight <= 0 {
		return fmt.Errorf("tenant %s: weight %q must be a positive number", name, weightStr)
	}
	tc := cluster.TenantConfig{Weight: weight}
	if hasQuota {
		quota, err := strconv.ParseFloat(quotaStr, 64)
		if err != nil || quota <= 0 {
			return fmt.Errorf("tenant %s: quota %q must be a positive number", name, quotaStr)
		}
		tc.MaxOutstandingCost = quota
	}
	if _, dup := tf[name]; dup {
		return fmt.Errorf("tenant %s configured twice", name)
	}
	tf[name] = tc
	return nil
}

// newLogger builds the router's structured logger on stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// statusWriter records the response status and size for the access log
// while passing streaming (http.Flusher) through — proxied SSE streams
// must still flush frame by frame.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// accessLog wraps the router handler with per-request structured logging,
// mirroring mwcd's: request IDs (X-Request-Id), method, path, status,
// bytes, latency. Long-lived streams log once, on completion.
func accessLog(logger *slog.Logger, next http.Handler) http.Handler {
	var nextID atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r-%08d", nextID.Add(1))
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("latency", time.Since(start)),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

func run(args []string) error {
	fs := flag.NewFlagSet("mwcrouter", flag.ContinueOnError)
	var workers workerFlags
	tenants := tenantFlags{}
	var (
		addr          = fs.String("addr", ":8360", "listen address")
		vnodes        = fs.Int("vnodes", cluster.DefaultVnodes, "consistent-hash vnodes per worker")
		checkInterval = fs.Duration("check-interval", 2*time.Second, "worker health-sweep period")
		checkTimeout  = fs.Duration("check-timeout", 2*time.Second, "per-probe timeout")
		failAfter     = fs.Int("fail-after", 3, "consecutive failed probes before a worker is declared dead and its journal replayed")
		maxN          = fs.Int("maxn", 16384, "largest instance size accepted at submission (negative disables the cap); keep equal to the workers' -maxn")
		maxBatch      = fs.Int("max-batch", 256, "largest jobs:batch request")
		maxBody       = fs.Int64("maxbody", 1<<20, "request body size limit in bytes")
		qosCapacity   = fs.Float64("qos-capacity", 0, "cluster-wide in-flight estimated-cost budget (0 = unbounded)")
		drain         = fs.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		logFormat     = fs.String("log-format", "text", "log output format: text | json")
	)
	fs.Var(&workers, "worker", "worker shard as name=url[;dataDir] (repeatable, at least one)")
	fs.Var(tenants, "tenant", "tenant QoS policy as name=weight[:quota] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(*logFormat)
	if err != nil {
		return err
	}
	if len(workers) == 0 {
		return fmt.Errorf("at least one -worker name=url is required")
	}

	r, err := cluster.New(cluster.Config{
		Workers:       workers,
		Vnodes:        *vnodes,
		CheckInterval: *checkInterval,
		CheckTimeout:  *checkTimeout,
		FailAfter:     *failAfter,
		MaxN:          *maxN,
		MaxBatchItems: *maxBatch,
		MaxBodyBytes:  *maxBody,
		QoSCapacity:   *qosCapacity,
		Tenants:       tenants,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	r.Start() // sweeps all workers once before we serve, then periodically

	srv := &http.Server{
		Addr:              *addr,
		Handler:           accessLog(logger, r.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		names := make([]string, 0, len(workers))
		for _, w := range workers {
			names = append(names, w.Name)
		}
		logger.Info("listening",
			slog.String("addr", *addr),
			slog.Any("workers", names),
			slog.Float64("qosCapacity", *qosCapacity),
		)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		r.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	logger.Info("shutting down", slog.Duration("drainBudget", *drain))

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	serr := srv.Shutdown(drainCtx)
	// Close after Shutdown: the router's Close releases held QoS cost and
	// stops the health loop; in-flight proxied requests finish first.
	r.Close()
	if werr := <-errc; werr != nil {
		return werr
	}
	if serr != nil {
		return fmt.Errorf("http shutdown: %w", serr)
	}
	logger.Info("drained cleanly")
	return nil
}
