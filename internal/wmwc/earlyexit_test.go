package wmwc

import (
	"fmt"
	"math/bits"
	"regexp"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/graph"
	"congestmwc/internal/obs"
	"congestmwc/internal/seq"
)

var levelSpan = regexp.MustCompile(`^wmwc:short-cycles/level-\d+$`)

// runCounted runs the approximation under a Collector and returns the
// result with the number of scaling levels executed, counted from the
// wmwc:short-cycles/level-N spans.
func runCounted(t *testing.T, g *graph.Graph, seed int64, spec Spec) (*Result, int) {
	t.Helper()
	net := newNet(t, g, seed)
	col := &obs.Collector{NoSeries: true, NoPerTag: true, NoPerLink: true}
	net.SetObserver(col)
	res, err := Run(net, spec)
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	for _, sp := range col.Phases {
		if levelSpan.MatchString(sp.Path) {
			levels++
		}
	}
	return res, levels
}

// ceilLog2 returns ceil(log2 w) for w >= 1, the level i* that fits a cycle
// of weight w.
func ceilLog2(w int64) int { return bits.Len64(uint64(w - 1)) }

// checkApprox asserts soundness and the (2+eps) guarantee against the
// sequential reference.
func checkApprox(t *testing.T, name string, res *Result, want int64, eps float64) {
	t.Helper()
	if !res.Found || res.Weight < want || float64(res.Weight) > (2+eps)*float64(want) {
		t.Errorf("%s: got (%d,%v), want within [%d, (2+%g)*%d]", name, res.Weight, res.Found, want, eps, want)
	}
}

// checkLevels asserts the two halves of the stopping rule: level
// i* = ceil(log2 w*) always runs (when the scaling has it), and with
// eps <= 1 no more than i*+2 levels run.
func checkLevels(t *testing.T, name string, levels int, want int64, total int) {
	t.Helper()
	istar := ceilLog2(want)
	if levels < min(istar, total) || levels > istar+2 {
		t.Errorf("%s: ran %d of %d levels for w*=%d, want %d..%d",
			name, levels, total, want, min(istar, total), istar+2)
	}
}

// levelCount is the number of scaling levels L that Run sets up for spec.
func levelCount(t *testing.T, g *graph.Graph, spec Spec) int {
	t.Helper()
	sc, err := graph.NewScaling(hopThreshold(g, spec.H), spec.Eps/4, g.MaxWeight())
	if err != nil {
		t.Fatal(err)
	}
	return sc.Levels()
}

// TestEarlyExitLevelBound is the property behind the stopping rule: on
// random weighted instances with eps <= 1 the short-cycle phase runs level
// i* and at most ceil(log2 w*) + 2 levels in all, and the answer stays
// within (2+eps) of the reference.
func TestEarlyExitLevelBound(t *testing.T) {
	maxWs := []int64{8, 64, 1024}
	epss := []float64{0.25, 0.5, 1}
	for seed := int64(0); seed < 12; seed++ {
		directed := seed%2 == 1
		maxW, eps := maxWs[seed%3], epss[(seed/2)%3]
		p := 0.1
		if directed {
			p = 0.08
		}
		g, err := (gen.Random{N: 30, P: p, Directed: directed, Weighted: true,
			MaxW: maxW, Seed: seed + 900}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		want, ok := seq.MWC(g)
		if !ok {
			t.Fatalf("seed %d: instance should be cyclic", seed)
		}
		spec := Spec{Eps: eps}
		res, levels := runCounted(t, g, seed, spec)
		name := fmt.Sprintf("seed %d (directed=%v maxW=%d eps=%g)", seed, directed, maxW, eps)
		checkApprox(t, name, res, want, eps)
		checkLevels(t, name, levels, want, levelCount(t, g, spec))
	}
}

// TestEarlyExitSkipsHeavyLevels plants a weight-4 triangle among random
// edges of weight up to 1024: every level above i*+2 = 4 of the 15 must be
// skipped.
func TestEarlyExitSkipsHeavyLevels(t *testing.T) {
	for _, directed := range []bool{false, true} {
		r, err := (gen.Random{N: 40, P: 0.08, Directed: directed, Weighted: true,
			MaxW: 1024, Seed: 31}).Graph()
		if err != nil {
			t.Fatal(err)
		}
		planted := []graph.Edge{
			{From: 0, To: 1, Weight: 1}, {From: 1, To: 2, Weight: 1}, {From: 2, To: 0, Weight: 2},
			{From: 3, To: 5, Weight: 1024},
		}
		replaced := func(e graph.Edge) bool {
			for _, p := range planted {
				if (e.From == p.From && e.To == p.To) || (!directed && e.From == p.To && e.To == p.From) {
					return true
				}
			}
			return false
		}
		edges := append([]graph.Edge(nil), planted...)
		for _, e := range r.Edges() {
			if !replaced(e) {
				edges = append(edges, e)
			}
		}
		g, err := graph.Build(40, edges, graph.Options{Directed: directed, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := seq.MWC(g)
		if want != 4 || g.MaxWeight() != 1024 {
			t.Fatalf("directed=%v: planted instance has w*=%d maxW=%d, want 4 and 1024", directed, want, g.MaxWeight())
		}
		spec := Spec{Eps: 0.5}
		res, levels := runCounted(t, g, 5, spec)
		name := fmt.Sprintf("directed=%v", directed)
		checkApprox(t, name, res, want, spec.Eps)
		if total := levelCount(t, g, spec); total != 15 {
			t.Fatalf("%s: scaling has %d levels, the case needs 15", name, total)
		}
		checkLevels(t, name, levels, want, 15)
	}
}

// TestEarlyExitRunsEveryLevelWhenHeavy covers the other side of the rule:
// a ring whose only cycle is heavier than 2^(L-1) never meets the stopping
// condition, so all L levels run.
func TestEarlyExitRunsEveryLevelWhenHeavy(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := gen.Ring(20, directed, true, 5) // w* = 100
		spec := Spec{Eps: 0.5, H: 4}
		total := levelCount(t, g, spec)
		if top := int64(1) << (total - 1); top >= 100 {
			t.Fatalf("2^(L-1) = %d must be below w* = 100", top)
		}
		res, levels := runCounted(t, g, 3, spec)
		name := fmt.Sprintf("directed=%v", directed)
		checkApprox(t, name, res, 100, spec.Eps)
		if levels != total {
			t.Errorf("%s: ran %d levels, want all %d", name, levels, total)
		}
	}
}
