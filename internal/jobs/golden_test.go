package jobs

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/jobs -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got with the file at path byte for byte (or
// rewrites it under -update).
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenJobEventStream freezes the SSE wire format of one finished
// job's /v1/jobs/{id}/events replay: every id, event and data line, in
// order. The stream carries no wall-clock fields, so a fixed seed fixes
// the bytes. Comment lines (heartbeats, the closing notice) are left out.
func TestGoldenJobEventStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Observe: true, EventBuffer: 1 << 12})
	_, st := postJob(t, ts, exactRingSpec(12, 3))
	pollTerminal(t, ts, st.ID, time.Minute)

	resp := getEvents(t, ts, st.ID)
	defer resp.Body.Close()
	var out bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, ":") {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("..", "obs", "testdata", "job_events.sse"), out.Bytes())
}

// TestGoldenMetrics freezes the /metrics exposition bytes for a fixed
// snapshot, store section included.
func TestGoldenMetrics(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, Metrics{
		Workers: 4, QueueCap: 64, QueueDepth: 3, BusyWorkers: 2, Utilization: 0.5,
		Submitted: 10, Deduped: 1, Rejected: 2, Done: 9, Failed: 1, Cancelled: 3, Expired: 4,
		CacheEntries: 5, CacheHits: 6, CacheMisses: 7, CacheEvictions: 8, CacheHitRatio: 6.0 / 13,
		RoundsSimulated: 1234, MessagesSimulated: 5678, WordsSimulated: 91011,
		PeakLinkWords: 12, PeakQueueLen: 13,
		UptimeSeconds: 12.5, BuildVersion: "(devel)", GoVersion: "go1.24.0",
		JobQueueWaitSeconds: testHistogram(0.0005, 0.01, 0.02, 3),
		JobRunSeconds:       testHistogram(0.3, 7, 900),
		JobRounds:           testHistogram(128, 4096),
		JobMessages:         testHistogram(),
		Store: &StoreMetrics{WALBytes: 123, WALRecords: 30, Fsyncs: 3, Snapshots: 1,
			RecoveredJobs: 2, DurableResults: 9, DurableHits: 4, DroppedRecords: 5},
	})
	checkGolden(t, filepath.Join("testdata", "metrics.prom"), buf.Bytes())
}
