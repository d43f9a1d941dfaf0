package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./internal/cluster -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenRouterMetrics freezes the router /metrics exposition bytes for
// a fixed counter state. The router is never started, so no worker is
// probed and both read not-ready.
func TestGoldenRouterMetrics(t *testing.T) {
	r, err := New(Config{Workers: []WorkerConfig{
		{Name: "a", URL: "http://a.invalid"},
		{Name: "b", URL: "http://b.invalid"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.workers["a"].ready.Store(true)
	r.workers["a"].placed.Store(3)
	r.workers["b"].placed.Store(4)
	for i, c := range []interface{ Add(uint64) uint64 }{
		&r.submissions, &r.sessions, &r.batchJobs, &r.proxied, &r.sseStreams,
		&r.handoffs, &r.handoffJobs, &r.handoffSessions, &r.handoffFailures,
	} {
		c.Add(uint64(i + 1))
	}
	r.relocated["a-j-1"] = "b"
	var buf bytes.Buffer
	r.writeMetrics(&buf)

	path := filepath.Join("testdata", "router_metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("router metrics differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
