package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/ksssp"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenRun drives a fixed-seed weighted k-source SSSP under an outer
// phase, with o installed. The instance is small but exercises everything
// the encoders render: nested phase paths, several Run calls, fragmented
// messages and skipped round gaps from the stretched BFS.
func goldenRun(t *testing.T, o congest.Observer) {
	t.Helper()
	g, err := (gen.Random{N: 8, P: 0.3, Weighted: true, MaxW: 6, Seed: 11}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	net, err := congest.NewNetwork(g, congest.Options{Seed: 4, Bandwidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	net.SetObserver(o)
	net.BeginPhase("golden")
	if _, err := ksssp.Run(net, ksssp.Spec{Sources: []int{0, 5}, Eps: 0.5}); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
}

// checkGolden compares got with testdata/name byte for byte (or rewrites
// the file under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Errorf("%s differs from the golden file (%d vs %d bytes); first difference at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestGoldenJSONL freezes the JSONL trace format, payload words included.
func TestGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := &JSONL{W: &buf, Words: true}
	goldenRun(t, j)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.jsonl", buf.Bytes())
}

// TestGoldenTraceWriter freezes the text trace format, including the
// suppression line written at the end of every Run.
func TestGoldenTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	goldenRun(t, &congest.TraceWriter{W: &buf, MaxMessages: 5})
	checkGolden(t, "trace.txt", buf.Bytes())
}

// TestGoldenSummary freezes the Summary JSON of a full collector (every
// section on, wall clock off so the bytes are deterministic).
func TestGoldenSummary(t *testing.T) {
	col := &Collector{SampleMessages: 8}
	goldenRun(t, col)
	var buf bytes.Buffer
	if err := col.Summary().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.json", buf.Bytes())
}
