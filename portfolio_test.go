package congestmwc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/seq"
)

func TestPortfolioRegistryShape(t *testing.T) {
	names := AlgorithmNames()
	want := []string{AlgoNameAgarwal, AlgoNameApprox, AlgoNameExact, AlgoNameGirthApx}
	if len(names) != len(want) {
		t.Fatalf("registered %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered %v, want %v", names, want)
		}
	}
	for _, a := range Portfolio() {
		if a.Description == "" || len(a.Classes) == 0 || a.Ratio == nil || a.Estimate == nil || a.run == nil {
			t.Fatalf("incomplete registry entry %q", a.Name)
		}
		for _, c := range a.Classes {
			r := a.Ratio(c, 0)
			if r < 1 {
				t.Fatalf("%q registers ratio %v < 1 on %s", a.Name, r, c)
			}
			if a.Exact && r != 1 {
				t.Fatalf("%q is marked exact but registers ratio %v on %s", a.Name, r, c)
			}
			// Fair queueing rests on the price: positive, finite, and
			// strictly growing with every size parameter (a bigger job
			// may never price below a smaller one).
			base := Features{Class: c, N: 64, M: 256, MaxWeight: 8}
			est := a.Estimate(base, 0)
			if !(est.Rounds > 0) || !(est.Messages > 0) || math.IsInf(est.Rounds+est.Messages, 0) {
				t.Fatalf("%q estimates %+v on %s", a.Name, est, c)
			}
			cost := func(f Features) float64 {
				e := a.Estimate(f, 0)
				return e.Rounds + e.Messages
			}
			grow := map[string]Features{
				"n": {Class: c, N: 128, M: 256, MaxWeight: 8},
				"m": {Class: c, N: 64, M: 512, MaxWeight: 8},
			}
			if c == UndirectedWeighted || c == DirectedWeighted {
				grow["maxW"] = Features{Class: c, N: 64, M: 256, MaxWeight: 4096}
			}
			for what, f := range grow {
				if cost(f) <= cost(base) {
					t.Errorf("%q on %s: cost %.0f did not grow with %s (base %.0f)", a.Name, c, cost(f), what, cost(base))
				}
			}
		}
	}
	// The weighted approximation pays for scaling levels the unweighted
	// run does not.
	approx, _ := AlgorithmByName(AlgoNameApprox)
	uw := approx.Estimate(Features{Class: Undirected, N: 64, M: 256, MaxWeight: 1}, 0)
	w := approx.Estimate(Features{Class: UndirectedWeighted, N: 64, M: 256, MaxWeight: 64}, 0)
	if uw.Rounds+uw.Messages >= w.Rounds+w.Messages {
		t.Error("unweighted approx priced at or above weighted approx of the same size")
	}
	if _, ok := AlgorithmByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestRunAlgorithmDispatch runs every registry entry on every class it
// serves and checks the answer against the registered ratio and the
// reference solver; exact entries must match bit for bit, witnesses must
// verify.
func TestRunAlgorithmDispatch(t *testing.T) {
	type classGen struct {
		class    Class
		directed bool
		weighted bool
	}
	gens := []classGen{
		{Undirected, false, false},
		{Directed, true, false},
		{UndirectedWeighted, false, true},
		{DirectedWeighted, true, true},
	}
	for _, a := range Portfolio() {
		for _, cg := range gens {
			if !a.ServesClass(cg.class) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", a.Name, cg.class), func(t *testing.T) {
				gg, err := (gen.Random{N: 28, P: 0.15, Directed: cg.directed, Weighted: cg.weighted, MaxW: 7, Seed: 11}).Graph()
				if err != nil {
					t.Fatal(err)
				}
				g := &Graph{g: gg, class: cg.class}
				ref, refFound := seq.MWC(gg)
				res, err := RunAlgorithm(a.Name, g, Options{Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !refFound {
					if res.Found {
						t.Fatalf("found %d in acyclic graph", res.Weight)
					}
					return
				}
				if !res.Found {
					t.Fatalf("cycle of weight %d missed", ref)
				}
				bound := int64(math.Ceil(a.Ratio(cg.class, 0) * float64(ref)))
				if res.Weight < ref || res.Weight > bound {
					t.Fatalf("weight %d outside [%d, %d]", res.Weight, ref, bound)
				}
				if a.Exact && res.Weight != ref {
					t.Fatalf("exact entry returned %d, reference %d", res.Weight, ref)
				}
				if res.Cycle != nil {
					w, err := seq.VerifyCycle(gg, res.Cycle)
					if err != nil {
						t.Fatalf("bad witness: %v", err)
					}
					if w != res.Weight {
						t.Fatalf("witness weight %d, reported %d", w, res.Weight)
					}
				}
				if res.Rounds <= 0 || res.Messages <= 0 {
					t.Fatalf("implausible stats: %d rounds, %d messages", res.Rounds, res.Messages)
				}
			})
		}
	}
}

func TestRunAlgorithmErrors(t *testing.T) {
	gg, err := (gen.Random{N: 10, P: 0.3, Directed: true, Seed: 1}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{g: gg, class: Directed}
	if _, err := RunAlgorithm("nope", g, Options{}); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := RunAlgorithm(AlgoNameGirthApx, g, Options{}); err == nil || !strings.Contains(err.Error(), "does not serve") {
		t.Fatalf("class mismatch: %v", err)
	}
	if _, err := GirthApxMWC(g, Options{}); err == nil {
		t.Fatal("GirthApxMWC accepted a directed graph")
	}
	if _, err := AgarwalMWC(g, Options{Bandwidth: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestAgarwalMWCCancellation(t *testing.T) {
	gg, err := (gen.Random{N: 40, P: 0.1, Weighted: true, MaxW: 9, Seed: 3}).Graph()
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{g: gg, class: UndirectedWeighted}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AgarwalMWCCtx(ctx, g, Options{Seed: 3})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if res == nil {
		t.Fatal("expected a partial-progress result on cancellation")
	}
	if res.Found {
		t.Fatalf("cancelled run reported a result: %+v", res)
	}
}
