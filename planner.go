package congestmwc

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Guarantee is a requested answer-quality contract: instead of naming an
// algorithm, callers name the factor they need and the planner picks the
// cheapest registered algorithm whose bound is at least as strong.
//
// The guarantee lattice, strongest first:
//
//	exact (1)  <  girth (2 - 1/g)  <  2  <  2+eps  <  numeric ratios
//
// "girth" is special: the (2 - 1/g) factor is defined relative to the
// girth and applies to the undirected unweighted class only; on that class
// it is met by exact algorithms and by the paper's girth approximation.
// Numeric guarantees ("1.5", "3") request a plain multiplicative factor.
type Guarantee string

// Canonical guarantee tokens.
const (
	// GuaranteeExact requests the exact answer (ratio 1).
	GuaranteeExact Guarantee = "exact"
	// GuaranteeGirth requests the (2 - 1/g) girth factor of Theorem 1.3.B
	// (undirected unweighted class only).
	GuaranteeGirth Guarantee = "girth"
	// GuaranteeTwo requests a plain factor-2 bound.
	GuaranteeTwo Guarantee = "2"
	// GuaranteeTwoEps requests the (2+eps) factor of the weighted
	// approximations (eps from Options.Eps, default 0.25).
	GuaranteeTwoEps Guarantee = "2+eps"
)

// ParseGuarantee normalises and validates a guarantee token: one of the
// canonical tokens, or a numeric ratio >= 1.
func ParseGuarantee(s string) (Guarantee, error) {
	tok := strings.TrimSpace(strings.ToLower(s))
	switch Guarantee(tok) {
	case GuaranteeExact, GuaranteeGirth, GuaranteeTwo, GuaranteeTwoEps:
		return Guarantee(tok), nil
	case "":
		return "", fmt.Errorf("congestmwc: empty guarantee (want exact | girth | 2 | 2+eps | a ratio >= 1)")
	}
	r, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return "", fmt.Errorf("congestmwc: unknown guarantee %q (want exact | girth | 2 | 2+eps | a ratio >= 1)", s)
	}
	if r < 1 {
		return "", fmt.Errorf("congestmwc: guarantee ratio %v is below 1: no algorithm can beat the exact answer", r)
	}
	return Guarantee(tok), nil
}

// Ratio returns the multiplicative factor the guarantee demands. For
// GuaranteeGirth the factor is (2 - 1/g), which depends on the (unknown)
// girth; it is reported as 2, with satisfaction decided by the dedicated
// GirthFactor capability rather than this number.
func (q Guarantee) Ratio(eps float64) float64 {
	switch q {
	case GuaranteeExact:
		return 1
	case GuaranteeGirth, GuaranteeTwo:
		return 2
	case GuaranteeTwoEps:
		return 2 + epsOrDefault(eps)
	default:
		r, err := strconv.ParseFloat(string(q), 64)
		if err != nil {
			return 1 // unparsed guarantees demand the strongest bound
		}
		return r
	}
}

// Features are the instance properties the planner decides on.
type Features struct {
	Class Class
	N, M  int
	// MaxWeight is the largest edge weight (1 on unweighted classes).
	MaxWeight int64
	// HasZeroWeight reports a zero-weight edge (weighted classes only);
	// algorithms whose machinery needs weights >= 1 are filtered out.
	HasZeroWeight bool
}

// FeaturesOf extracts the planner features of a graph.
func FeaturesOf(g *Graph) Features {
	f := Features{Class: g.class, N: g.g.N(), M: g.g.M(), MaxWeight: g.g.MaxWeight()}
	if g.class == UndirectedWeighted || g.class == DirectedWeighted {
		for v := 0; v < g.g.N() && !f.HasZeroWeight; v++ {
			for _, a := range g.g.Out(v) {
				if a.Weight == 0 {
					f.HasZeroWeight = true
					break
				}
			}
		}
	}
	return f
}

// Decision records a planner choice: which algorithm will run and why.
type Decision struct {
	// Algorithm is the chosen portfolio algorithm's name.
	Algorithm string `json:"algorithm"`
	// Guarantee echoes the requested guarantee.
	Guarantee Guarantee `json:"guarantee"`
	// Ratio is the chosen algorithm's registered factor on the instance's
	// class — never weaker than the requested guarantee.
	Ratio float64 `json:"ratio"`
	// EstRounds is the cost-model estimate the choice was ranked by.
	EstRounds float64 `json:"estRounds"`
	// Reason is a one-line human explanation.
	Reason string `json:"reason"`
}

// satisfies reports whether algorithm a meets guarantee q on features f.
func satisfies(a AlgorithmInfo, q Guarantee, f Features, eps float64) bool {
	if !a.ServesClass(f.Class) {
		return false
	}
	if f.HasZeroWeight && a.RejectsZeroWeight {
		return false
	}
	if q == GuaranteeGirth {
		return a.Exact || a.GirthFactor
	}
	const tol = 1e-9
	return a.Ratio(f.Class, eps) <= q.Ratio(eps)+tol
}

// PlanFeatures picks the cheapest registered algorithm that meets the
// guarantee on the given instance features. It returns a descriptive error
// when no registered algorithm can satisfy the guarantee for the class —
// the admission-time validation the serving API surfaces as HTTP 400.
func PlanFeatures(f Features, q Guarantee, opts Options) (Decision, error) {
	q, err := ParseGuarantee(string(q))
	if err != nil {
		return Decision{}, err
	}
	if q == GuaranteeGirth && f.Class != Undirected {
		return Decision{}, fmt.Errorf(
			"congestmwc: guarantee %q is unsatisfiable for class %s: the (2 - 1/g) girth factor is defined for the undirected unweighted class only (request \"exact\", \"2\" or \"2+eps\" instead)",
			q, f.Class)
	}
	eps := opts.Eps
	type cand struct {
		a   AlgorithmInfo
		est float64
	}
	var cands []cand
	for _, a := range portfolio {
		if satisfies(a, q, f, eps) {
			cands = append(cands, cand{a, a.Estimate(f, eps).Rounds})
		}
	}
	if len(cands) == 0 {
		return Decision{}, fmt.Errorf(
			"congestmwc: no portfolio algorithm satisfies guarantee %q for class %s (n=%d, m=%d, maxW=%d, zeroWeight=%v)",
			q, f.Class, f.N, f.M, f.MaxWeight, f.HasZeroWeight)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].est != cands[j].est {
			return cands[i].est < cands[j].est
		}
		return cands[i].a.Name < cands[j].a.Name
	})
	best := cands[0]
	return Decision{
		Algorithm: best.a.Name,
		Guarantee: q,
		Ratio:     best.a.Ratio(f.Class, eps),
		EstRounds: best.est,
		Reason: fmt.Sprintf("cheapest of %d candidate(s) meeting %q on %s (est %.0f rounds)",
			len(cands), q, f.Class, best.est),
	}, nil
}

// Plan is PlanFeatures on a concrete graph.
func Plan(g *Graph, q Guarantee, opts Options) (Decision, error) {
	return PlanFeatures(FeaturesOf(g), q, opts)
}

// PlanMWC plans and runs: the guarantee-first entry point of the facade.
// It is PlanMWCCtx with a background context.
func PlanMWC(g *Graph, q Guarantee, opts Options) (*Result, Decision, error) {
	return PlanMWCCtx(context.Background(), g, q, opts)
}

// PlanMWCCtx plans the cheapest algorithm meeting the guarantee, runs it
// under the context, and returns the result together with the decision.
func PlanMWCCtx(ctx context.Context, g *Graph, q Guarantee, opts Options) (*Result, Decision, error) {
	d, err := Plan(g, q, opts)
	if err != nil {
		return nil, Decision{}, err
	}
	res, err := RunAlgorithmCtx(ctx, d.Algorithm, g, opts)
	return res, d, err
}
