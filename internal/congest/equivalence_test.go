package congest

import (
	"fmt"
	"testing"

	"congestmwc/internal/gen"
)

// floodFrom builds per-node programs flooding a 2-word token from root.
func floodFrom(n, root int) ([]Program, []bool) {
	heard := make([]bool, n)
	progs := make([]Program, n)
	for v := 0; v < n; v++ {
		v := v
		progs[v] = Funcs{
			OnInit: func(nd *Node) {
				if v == root {
					heard[v] = true
					for _, u := range nd.Neighbors() {
						nd.SendTag(u, 42, int64(v), 0)
					}
				}
			},
			OnDeliver: func(nd *Node, d Delivery) {
				if d.Msg.Tag != 42 || heard[v] {
					return
				}
				heard[v] = true
				for _, u := range nd.Neighbors() {
					if u != d.From {
						nd.SendTag(u, 42, int64(v), d.Msg.Words[1]+1)
					}
				}
			},
		}
	}
	return progs, heard
}

// TestEngineEventStreamEquivalence asserts the sequential and parallel
// engines emit the identical observer event stream — every event, in
// order, with identical payloads — on a seeded random graph, across two
// phased runs. Run with -race to also check that observer callbacks never
// fire from worker goroutines.
func TestEngineEventStreamEquivalence(t *testing.T) {
	g, err := (gen.Random{N: 40, P: 0.15, Seed: 7}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	capture := func(parallel bool) []string {
		net, err := NewNetwork(g, Options{Seed: 11, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{mask: AllEvents, log: true}
		net.SetObserver(rec)
		for i, root := range []int{0, g.N() / 2} {
			net.BeginPhase(fmt.Sprintf("stage-%d", i))
			progs, heard := floodFrom(g.N(), root)
			if _, err := net.Run(progs, 0); err != nil {
				t.Fatal(err)
			}
			net.EndPhase()
			for v, h := range heard {
				if !h {
					t.Fatalf("parallel=%v: node %d never heard the flood", parallel, v)
				}
			}
		}
		return rec.events
	}
	seq := capture(false)
	par := capture(true)
	if len(seq) != len(par) {
		t.Fatalf("stream lengths differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("streams diverge at event %d:\n  sequential: %s\n  parallel:   %s",
				i, seq[i], par[i])
		}
	}
	if len(seq) == 0 {
		t.Fatal("no events recorded")
	}
}
