package proto

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"congestmwc/internal/congest"
	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/obs"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/proto -run Golden -update
//
// The goldens freeze the full message stream (who sends what to whom in
// which round, payloads included) of the two substrates whose host-side
// bookkeeping is tuned for speed: any such change must leave them
// byte-identical.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

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
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s differs from the golden file (%d vs %d bytes); first difference at byte %d",
			name, len(got), len(want), i)
	}
}

// tracedNet returns a network on g streaming its events, payloads
// included, as JSONL into buf.
func tracedNet(t *testing.T, g *graph.Graph, bandwidth int, buf *bytes.Buffer) (*congest.Network, *obs.JSONL) {
	t.Helper()
	net, err := congest.NewNetwork(g, congest.Options{Seed: 3, Bandwidth: bandwidth})
	if err != nil {
		t.Fatal(err)
	}
	j := &obs.JSONL{W: buf, Words: true}
	net.SetObserver(j)
	return net, j
}

// maxQueueLen returns the largest maxQueueLen of the trace's round events.
func maxQueueLen(t *testing.T, trace []byte) int {
	t.Helper()
	const key = `"maxQueueLen":`
	best := 0
	for _, line := range bytes.Split(trace, []byte("\n")) {
		i := bytes.Index(line, []byte(key))
		if i < 0 {
			continue
		}
		q := 0
		for _, c := range line[i+len(key):] {
			if c < '0' || c > '9' {
				break
			}
			q = 10*q + int(c-'0')
		}
		if q > best {
			best = q
		}
	}
	return best
}

// TestGoldenStretchedMultiBFS freezes the message stream of a stretched
// multi-source BFS with mixed arc lengths 1..5: delayed sends of several
// fields fall due at one node in the same round, and with two words of
// bandwidth per round (one message takes two rounds) they queue behind
// each other and reach their neighbour after their due round.
func TestGoldenStretchedMultiBFS(t *testing.T) {
	g, err := (gen.Random{N: 12, P: 0.3, Weighted: true, MaxW: 5, Seed: 9}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	net, j := tracedNet(t, g, 2, &buf)
	res, err := RunMultiBFS(net, MultiBFSSpec{
		Sources: []int{0, 4, 7, 11}, Dir: Undirected, Stretch: true,
		Length: func(a graph.Arc) int64 { return a.Weight },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	if q := maxQueueLen(t, buf.Bytes()); q < 2 {
		t.Fatalf("max queue length %d: the instance no longer queues sends", q)
	}
	if res.Rounds < 10 {
		t.Fatalf("%d rounds: the instance no longer stretches", res.Rounds)
	}
	checkGolden(t, "multibfs_stretched.jsonl", buf.Bytes())
}

// TestGoldenBroadcast freezes the message stream of a Broadcast on a
// multi-level BFS tree (a 4x5 grid rooted at a corner, height 7), with
// records of two words from several nodes at every depth: the upcast
// merges at inner nodes and the downcast pipelines through every level.
func TestGoldenBroadcast(t *testing.T) {
	g := gen.Grid(4, 5, false, 0, 1)
	var buf bytes.Buffer
	net, j := tracedNet(t, g, 3, &buf)
	tree, err := BuildTree(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Height < 3 {
		t.Fatalf("tree height %d, want a multi-level tree", tree.Height)
	}
	values := make([][][]int64, g.N())
	for v := 0; v < g.N(); v += 3 {
		for i := 0; i <= (v/3)%3; i++ {
			values[v] = append(values[v], []int64{int64(v), int64(i)})
		}
	}
	if _, err := Broadcast(net, tree, values); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "broadcast.jsonl", buf.Bytes())
}
