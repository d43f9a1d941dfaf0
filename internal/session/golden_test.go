package session

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./internal/session -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenMetrics freezes the session /metrics exposition bytes for a
// fixed snapshot.
func TestGoldenMetrics(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, Metrics{
		Open: 1, Created: 2, Closed: 3, Restored: 4, Patches: 5, Ops: 6,
		WitnessKept: 7, Invalidations: 8, Recomputes: 9, Queries: 10, CachedAnswers: 11,
	})
	path := filepath.Join("testdata", "metrics.prom")
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
		t.Errorf("session metrics differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}
