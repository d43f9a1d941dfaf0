package congestmwc

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"congestmwc/internal/gen"
	"congestmwc/internal/seq"
)

// TestParseGuarantee pins down the token grammar.
func TestParseGuarantee(t *testing.T) {
	good := map[string]Guarantee{
		"exact":  GuaranteeExact,
		"EXACT":  GuaranteeExact,
		" girth": GuaranteeGirth,
		"2":      GuaranteeTwo,
		"2+eps":  GuaranteeTwoEps,
		"1":      Guarantee("1"),
		"1.5":    Guarantee("1.5"),
		"3":      Guarantee("3"),
	}
	for in, want := range good {
		got, err := ParseGuarantee(in)
		if err != nil {
			t.Fatalf("ParseGuarantee(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseGuarantee(%q) = %q, want %q", in, got, want)
		}
	}
	for _, in := range []string{"", "best", "0.5", "-1", "2eps", "exactly"} {
		if _, err := ParseGuarantee(in); err == nil {
			t.Fatalf("ParseGuarantee(%q) accepted", in)
		}
	}
}

// TestPlannerDecisionTable freezes the planner's choices on a matrix of
// (guarantee, class, size, weight range) cells. The expectations encode the
// calibrated cost model: at simulable sizes the linear-round exact engines
// undercut the sublinear-round paper approximations (whose polylog/eps
// constants dominate until n is astronomically large), exact beats agarwal
// below the ~n=1000 crossover where batching pays off, and girthapx
// overtakes exact on large low-weight weighted instances. Any deliberate
// recalibration must update this table in the same change.
func TestPlannerDecisionTable(t *testing.T) {
	cases := []struct {
		q     Guarantee
		class Class
		n, m  int
		maxW  int64
		zeroW bool
		want  string // chosen algorithm, or "" for an error
	}{
		// Exact: the exact/agarwal duel. Small instances go to the plain
		// APSP engine; the batched pruning algorithm wins past the
		// crossover (0.3n > 10*sqrt(n) undirected, i.e. n > ~1100).
		{GuaranteeExact, Undirected, 64, 256, 1, false, AlgoNameExact},
		{GuaranteeExact, Undirected, 4096, 16384, 1, false, AlgoNameAgarwal},
		{GuaranteeExact, Directed, 64, 256, 1, false, AlgoNameExact},
		{GuaranteeExact, Directed, 4096, 16384, 1, false, AlgoNameAgarwal},
		{GuaranteeExact, UndirectedWeighted, 64, 256, 16, false, AlgoNameExact},
		{GuaranteeExact, DirectedWeighted, 64, 256, 16, false, AlgoNameExact},
		{GuaranteeExact, DirectedWeighted, 4096, 16384, 16, false, AlgoNameAgarwal},

		// Factor 2, undirected unweighted: at small n even here the exact
		// engine is cheapest (measured 70 vs 91 rounds at n=32); the
		// sqrt(n)-round sampled approximations take over past n ~ 230,
		// where "approx" and "girthapx" tie on the calibrated model and
		// the name tie-break is frozen.
		{GuaranteeTwo, Undirected, 64, 256, 1, false, AlgoNameExact},
		{GuaranteeTwo, Undirected, 4096, 16384, 1, false, AlgoNameApprox},
		// Girth factor: only meaningful undirected unweighted; exactness
		// satisfies it below the crossover, the paper algorithm above.
		{GuaranteeGirth, Undirected, 64, 256, 1, false, AlgoNameExact},
		{GuaranteeGirth, Undirected, 4096, 16384, 1, false, AlgoNameApprox},

		// Factor 2, undirected weighted: exact is cheapest at small n; the
		// girth approximation overtakes it once 0.9*sqrt(n)*(lg+maxW) falls
		// below 1.7n.
		{GuaranteeTwo, UndirectedWeighted, 64, 256, 16, false, AlgoNameExact},
		{GuaranteeTwo, UndirectedWeighted, 1024, 4096, 16, false, AlgoNameGirthApx},
		// Large weights push girthapx's stretched simulation past even the
		// exact engines.
		{GuaranteeTwo, UndirectedWeighted, 1024, 4096, 4096, false, AlgoNameExact},

		// Factor 2 directed: only "exact"/"agarwal"/"approx" serve the
		// class and the approximation's calibrated constant (~38 n^0.8 lg)
		// never undercuts the ~1.1n exact engines at representable sizes.
		{GuaranteeTwo, Directed, 64, 256, 1, false, AlgoNameExact},
		{GuaranteeTwo, Directed, 4096, 16384, 1, false, AlgoNameAgarwal},
		{GuaranteeTwoEps, DirectedWeighted, 64, 256, 16, false, AlgoNameExact},

		// Zero-weight edges filter out every algorithm that needs
		// weights >= 1, leaving the exact duo.
		{GuaranteeTwo, UndirectedWeighted, 1024, 4096, 16, true, AlgoNameExact},
		{GuaranteeTwoEps, DirectedWeighted, 64, 256, 16, true, AlgoNameExact},

		// Loose numeric ratios admit everything factor-2 admits.
		{Guarantee("3"), Undirected, 4096, 16384, 1, false, AlgoNameApprox},
		{Guarantee("1.5"), Undirected, 64, 256, 1, false, AlgoNameExact},

		// Unsatisfiable: girth off the undirected unweighted class.
		{GuaranteeGirth, Directed, 64, 256, 1, false, ""},
		{GuaranteeGirth, UndirectedWeighted, 64, 256, 16, false, ""},
		{GuaranteeGirth, DirectedWeighted, 64, 256, 16, false, ""},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/n%d/w%d/zero%v", c.q, c.class, c.n, c.maxW, c.zeroW)
		t.Run(name, func(t *testing.T) {
			f := Features{Class: c.class, N: c.n, M: c.m, MaxWeight: c.maxW, HasZeroWeight: c.zeroW}
			d, err := PlanFeatures(f, c.q, Options{})
			if c.want == "" {
				if err == nil {
					t.Fatalf("expected an unsatisfiable-guarantee error, got %+v", d)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d.Algorithm != c.want {
				t.Fatalf("chose %q (est %.0f), want %q", d.Algorithm, d.EstRounds, c.want)
			}
			if d.Guarantee != Guarantee(strings.TrimSpace(strings.ToLower(string(c.q)))) {
				t.Fatalf("decision echoes guarantee %q, want %q", d.Guarantee, c.q)
			}
			if d.Reason == "" {
				t.Fatal("empty decision reason")
			}
		})
	}
}

// TestPlannerNeverWeakensGuarantee is the planner's core safety property:
// over every guarantee, class, and feature combination, the chosen
// algorithm's registered bound is at least as strong as the request.
func TestPlannerNeverWeakensGuarantee(t *testing.T) {
	guarantees := []Guarantee{
		GuaranteeExact, GuaranteeGirth, GuaranteeTwo, GuaranteeTwoEps,
		Guarantee("1"), Guarantee("1.5"), Guarantee("2.5"), Guarantee("10"),
	}
	classes := []Class{Undirected, Directed, UndirectedWeighted, DirectedWeighted}
	sizes := []int{2, 16, 100, 1000, 50000, 1 << 20}
	weights := []int64{1, 2, 100, 1 << 30}
	epses := []float64{0, 0.1, 0.25, 1, 4}
	const tol = 1e-9
	for _, q := range guarantees {
		for _, class := range classes {
			for _, n := range sizes {
				for _, maxW := range weights {
					for _, zero := range []bool{false, true} {
						for _, eps := range epses {
							f := Features{Class: class, N: n, M: 3 * n, MaxWeight: maxW, HasZeroWeight: zero}
							d, err := PlanFeatures(f, q, Options{Eps: eps})
							if err != nil {
								continue // unsatisfiable is a legal outcome; never a weak pick
							}
							a, ok := AlgorithmByName(d.Algorithm)
							if !ok {
								t.Fatalf("planner chose unregistered %q", d.Algorithm)
							}
							if !a.ServesClass(class) {
								t.Fatalf("%s on %s: %q does not serve the class", q, class, d.Algorithm)
							}
							if zero && a.RejectsZeroWeight {
								t.Fatalf("%s on %s: %q rejects zero weights but instance has one", q, class, d.Algorithm)
							}
							if q == GuaranteeGirth {
								if !a.Exact && !a.GirthFactor {
									t.Fatalf("girth on %s: %q has neither exactness nor the girth factor", class, d.Algorithm)
								}
								continue
							}
							if got, want := a.Ratio(class, eps), q.Ratio(eps); got > want+tol {
								t.Fatalf("%s on %s (eps %v): chose %q with ratio %v > requested %v",
									q, class, eps, d.Algorithm, got, want)
							}
							if math.Abs(d.Ratio-a.Ratio(class, eps)) > tol {
								t.Fatalf("decision ratio %v disagrees with registry %v", d.Ratio, a.Ratio(class, eps))
							}
						}
					}
				}
			}
		}
	}
}

// TestPlanMWCEndToEnd runs the guarantee-first entry point on concrete
// graphs of every class and checks the answer against the requested bound.
func TestPlanMWCEndToEnd(t *testing.T) {
	cases := []struct {
		class    Class
		directed bool
		weighted bool
		q        Guarantee
	}{
		{Undirected, false, false, GuaranteeExact},
		{Undirected, false, false, GuaranteeGirth},
		{Directed, true, false, GuaranteeTwo},
		{UndirectedWeighted, false, true, GuaranteeTwo},
		{DirectedWeighted, true, true, GuaranteeTwoEps},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.class, c.q), func(t *testing.T) {
			gg, err := (gen.Random{N: 32, P: 0.15, Directed: c.directed, Weighted: c.weighted, MaxW: 8, Seed: 7}).Graph()
			if err != nil {
				t.Fatal(err)
			}
			g := &Graph{g: gg, class: c.class}
			ref, refFound := seq.MWC(gg)
			res, d, err := PlanMWC(g, c.q, Options{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if d.Algorithm == "" {
				t.Fatal("empty decision")
			}
			if !refFound {
				if res.Found {
					t.Fatalf("found %d in acyclic graph", res.Weight)
				}
				return
			}
			if !res.Found {
				t.Fatalf("cycle of weight %d missed by %q", ref, d.Algorithm)
			}
			bound := int64(math.Ceil(d.Ratio * float64(ref)))
			if res.Weight < ref || res.Weight > bound {
				t.Fatalf("%q: weight %d outside [%d, %d]", d.Algorithm, res.Weight, ref, bound)
			}
		})
	}
}

// TestPlanZeroWeightFallsBackToExact checks the feature extraction: a
// zero-weight edge must push factor-2 requests onto an exact engine, and
// the run must still return the exact answer.
func TestPlanZeroWeightFallsBackToExact(t *testing.T) {
	g, err := NewGraph(4, []Edge{
		{From: 0, To: 1, Weight: 0}, {From: 1, To: 2, Weight: 2},
		{From: 2, To: 3, Weight: 2}, {From: 3, To: 0, Weight: 2},
	}, UndirectedWeighted)
	if err != nil {
		t.Fatal(err)
	}
	f := FeaturesOf(g)
	if !f.HasZeroWeight {
		t.Fatal("zero-weight edge not detected")
	}
	res, d, err := PlanMWC(g, GuaranteeTwo, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := AlgorithmByName(d.Algorithm)
	if a.RejectsZeroWeight {
		t.Fatalf("planner chose %q, which rejects zero weights", d.Algorithm)
	}
	if !res.Found || res.Weight != 6 {
		t.Fatalf("got (%d, %v), want the exact 6", res.Weight, res.Found)
	}
}

// TestCostModelCalibration holds the registry's cost model to every
// committed measurement of a portfolio algorithm: on each case's instance,
// Estimate's Rounds and Messages must both be within a factor of 2 of the
// recorded rounds_per_op and messages_per_op. The cases are the four of
// bench/portfolio_baseline.json and the two bench/csr_hotpath.json cases
// that run a portfolio algorithm; its scaledsssp_gapbound (a bare scaled
// SSSP) and TransportRound (one transport round) run none, so the registry
// has nothing to price them with. A change that moves an algorithm's cost
// past that (or a refit of the constants) shows up here rather than as a
// silently mis-ranked plan or a mispriced admission.
func TestCostModelCalibration(t *testing.T) {
	type measured struct {
		Name     string  `json:"name"`
		Rounds   float64 `json:"rounds_per_op"`
		Messages float64 `json:"messages_per_op"`
	}
	load := func(path string) []measured {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Cases []measured }
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		return file.Cases
	}
	type calCase struct {
		measured
		algo string
		g    *Graph
		eps  float64
	}
	var cases []calCase
	port := load("bench/portfolio_baseline.json")
	if len(port) != len(Portfolio()) {
		t.Fatalf("baseline has %d cases, the portfolio %d algorithms", len(port), len(Portfolio()))
	}
	for _, c := range port {
		cases = append(cases, calCase{c, c.Name, portfolioBenchGraph(t, c.Name), 0})
	}
	csrGraph := func(r gen.Random, class Class) *Graph {
		g, err := r.Graph()
		if err != nil {
			t.Fatal(err)
		}
		return &Graph{g: g, class: class}
	}
	csr := map[string]calCase{
		"dense_apsp":    {algo: AlgoNameExact, g: csrGraph(csrDenseAPSP, Undirected)},
		"wmwc_msgbound": {algo: AlgoNameApprox, g: csrGraph(csrWMWCMsgBound, UndirectedWeighted), eps: csrWMWCEps},
	}
	for _, c := range load("bench/csr_hotpath.json") {
		if cc, ok := csr[c.Name]; ok {
			cc.measured = c
			cases = append(cases, cc)
			delete(csr, c.Name)
		}
	}
	for name := range csr {
		t.Errorf("bench/csr_hotpath.json lost the %s case", name)
	}

	const factor = 2.0
	for _, c := range cases {
		a, ok := AlgorithmByName(c.algo)
		if !ok {
			t.Errorf("case %q names no registered algorithm", c.Name)
			continue
		}
		est := a.Estimate(FeaturesOf(c.g), c.eps)
		for _, q := range []struct {
			what          string
			est, measured float64
		}{{"rounds", est.Rounds, c.Rounds}, {"messages", est.Messages, c.Messages}} {
			ratio := q.est / q.measured
			t.Logf("%-13s %-8s estimate %9.0f  measured %9.0f  ratio %.2f", c.Name, q.what, q.est, q.measured, ratio)
			if ratio > factor || ratio < 1/factor {
				t.Errorf("%s: estimated %.0f %s vs committed %.0f per op (ratio %.2f, allowed 1/%g..%g)",
					c.Name, q.est, q.what, q.measured, ratio, factor, factor)
			}
		}
	}
}
