package main

// The service stack both service workloads run: a durable internal/store
// journal in a temporary directory (default interval fsync; on the run's
// private tmpfs, see ramdisk.go), a jobs.Service with one worker per CPU
// over it, optionally a session manager persisting to the same store, and
// the HTTP handler, called in-process through ServeHTTP so no socket or
// network stack is measured.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/session"
	"congestmwc/internal/store"
)

type stack struct {
	dir string
	st  *store.Store
	ts  *timedStore // traced runs only
	svc *jobs.Service
	mgr *session.Manager // session-edit only
	h   http.Handler
}

// openStack starts the stack. The store directory is created under the
// process temporary directory, which run.sh points inside the checkout.
func openStack(procs int, sessions, traced bool) (*stack, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &stack{dir: dir, st: st}
	var journal jobs.Journal = st
	var sessStore session.SessionStore = st
	if traced {
		s.ts = &timedStore{st: st}
		journal, sessStore = s.ts, s.ts
	}
	s.svc = jobs.New(jobs.Config{Workers: procs, Journal: journal})
	if !sessions {
		s.h = jobs.NewHandler(s.svc, jobs.HandlerConfig{})
		return s, nil
	}
	s.mgr, err = session.NewManager(session.Config{Jobs: s.svc, Store: sessStore})
	if err != nil {
		s.close()
		return nil, err
	}
	s.h = session.NewHandler(s.mgr, session.HandlerConfig{})
	return s, nil
}

// close stops the stack, waiting for the workers, and removes the store.
func (s *stack) close() error {
	if s.mgr != nil {
		s.mgr.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.svc.Close(ctx)
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// serve sends one request through the handler and returns the status code
// and body.
func serve(h http.Handler, method, target string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// timedStore is *store.Store seen as jobs.Journal and session.SessionStore,
// timing Record, Lookup and WriteSession from outside the store.
type timedStore struct {
	st *store.Store

	mu           sync.Mutex
	record       []time.Duration
	lookup       []time.Duration
	writeSession []time.Duration
}

func (t *timedStore) add(to *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	*to = append(*to, d)
	t.mu.Unlock()
}

func (t *timedStore) Record(ev jobs.JournalEvent) {
	t0 := time.Now()
	t.st.Record(ev)
	t.add(&t.record, time.Since(t0))
}

func (t *timedStore) Lookup(key string) (*congestmwc.Result, bool) {
	t0 := time.Now()
	res, ok := t.st.Lookup(key)
	t.add(&t.lookup, time.Since(t0))
	return res, ok
}

func (t *timedStore) Sync() error { return t.st.Sync() }

func (t *timedStore) WriteSession(rec *store.SessionRecord) error {
	t0 := time.Now()
	err := t.st.WriteSession(rec)
	t.add(&t.writeSession, time.Since(t0))
	return err
}

func (t *timedStore) DeleteSession(id string) error { return t.st.DeleteSession(id) }

func (t *timedStore) ReadSessions() ([]*store.SessionRecord, error) { return t.st.ReadSessions() }

// fsyncs is the number of fsyncs the store has issued so far.
func (s *stack) fsyncs() uint64 { return s.st.StoreMetrics().Fsyncs }

// storeMetrics reports the store layer's per-layer figures; fsyncs0 is the
// fsync count at the start of the measured window and ops the ops
// completed in it.
func (s *stack) storeMetrics(m map[string]float64, fsyncs0 uint64, ops int) {
	s.ts.mu.Lock()
	defer s.ts.mu.Unlock()
	rec, look, ws := durationsUs(s.ts.record), durationsUs(s.ts.lookup), durationsUs(s.ts.writeSession)
	m["store.record_us.p50"] = quantile(rec, 0.5)
	m["store.record_us.p99"] = quantile(rec, 0.99)
	m["store.lookup_us.p50"] = quantile(look, 0.5)
	m["store.write_session_us.p50"] = quantile(ws, 0.5)
	m["store.write_session_us.p99"] = quantile(ws, 0.99)
	m["store.compactions"] = float64(s.st.StoreMetrics().Snapshots)
	m["store.fsyncs_per_op"] = share(float64(s.fsyncs()-fsyncs0), float64(ops))
}

// setupStack opens the stack setupReps times, running prepare on each, and
// keeps the last; setup_s is the median of the process CPU time of each,
// and covers store open, service and handler start and the work prepare
// does, the workers' included. The stacks before the last are closed once
// timed.
func setupStack(procs int, sessions, traced bool, prepare func(*stack) error) (*stack, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		c0 := cpuTime()
		s, err := openStack(procs, sessions, traced)
		if err != nil {
			return nil, 0, err
		}
		if err := prepare(s); err != nil {
			s.close()
			return nil, 0, err
		}
		times = append(times, secs(cpuTime()-c0))
		if r == setupReps-1 {
			return s, median(times), nil
		}
		if err := s.close(); err != nil {
			return nil, 0, err
		}
	}
}
