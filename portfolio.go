package congestmwc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"congestmwc/internal/agarwal"
	"congestmwc/internal/congest"
	"congestmwc/internal/girthapx"
)

// Algorithm names of the portfolio. "approx" and "exact" are the legacy
// facade entry points (the source paper's class-dispatched approximations
// and the APSP baseline); "agarwal" and "girthapx" are the successor-paper
// packages.
const (
	AlgoNameApprox   = "approx"
	AlgoNameExact    = "exact"
	AlgoNameAgarwal  = "agarwal"
	AlgoNameGirthApx = "girthapx"
)

// AlgorithmInfo describes one registered algorithm of the portfolio: which
// classes it serves, the approximation guarantee it is registered for, and
// a calibrated cost model that the planner ranks candidates by and QoS
// admission prices jobs with.
type AlgorithmInfo struct {
	// Name is the registry key, used in job specs and CLI flags.
	Name string
	// Description is a one-line human summary.
	Description string
	// Classes lists the graph classes the algorithm serves.
	Classes []Class
	// Exact reports whether the registered ratio is exactly 1 on every
	// served class.
	Exact bool
	// Deterministic reports whether the algorithm uses no shared
	// randomness (its round count and answer depend only on the instance).
	Deterministic bool
	// RejectsZeroWeight reports that the algorithm declines weighted
	// instances containing zero-weight edges (the scaling/stretched
	// machinery needs weights >= 1). The planner filters on it.
	RejectsZeroWeight bool
	// GirthFactor reports that, on the undirected unweighted class, the
	// algorithm attains the paper's (2 - 1/g) girth factor — strictly
	// inside plain factor 2, and the only way (besides exactness) to meet
	// the "girth" guarantee.
	GirthFactor bool
	// Ratio returns the registered approximation factor on the class (1
	// for exact algorithms). The bound is what the oracle registry in
	// internal/check enforces on every fuzz instance.
	Ratio func(class Class, eps float64) float64
	// Estimate is the cost model: rounds and messages from instance
	// features, theorem-shaped with constants calibrated against the
	// committed bench baselines (bench/portfolio_baseline.json and the
	// portfolio cases of bench/csr_hotpath.json). The planner ranks by
	// its Rounds; QoS admission charges Rounds + Messages.
	Estimate func(f Features, eps float64) Cost

	run func(ctx context.Context, g *Graph, opts Options) (*Result, error)
}

// ServesClass reports whether the algorithm is registered for the class.
func (a AlgorithmInfo) ServesClass(c Class) bool {
	for _, cc := range a.Classes {
		if cc == c {
			return true
		}
	}
	return false
}

// portfolio is the fixed algorithm registry. Order is presentation order;
// the planner re-sorts by estimated cost.
var portfolio = []AlgorithmInfo{
	{
		Name:        AlgoNameApprox,
		Description: "the source paper's sublinear-round approximation for the graph's class",
		Classes:     []Class{Undirected, Directed, UndirectedWeighted, DirectedWeighted},
		// wmwc's scaling levels need weights >= 1 on the weighted classes.
		RejectsZeroWeight: true,
		GirthFactor:       true,
		Ratio: func(c Class, eps float64) float64 {
			switch c {
			case Undirected, Directed:
				return 2
			default:
				return 2 + epsOrDefault(eps)
			}
		},
		Estimate: estApprox,
		run:      ApproxMWCCtx,
	},
	{
		Name:          AlgoNameExact,
		Description:   "O~(n)-round exact MWC via n-source APSP",
		Classes:       []Class{Undirected, Directed, UndirectedWeighted, DirectedWeighted},
		Exact:         true,
		Deterministic: true,
		Ratio:         func(Class, float64) float64 { return 1 },
		Estimate:      estExact,
		run:           ExactMWCCtx,
	},
	{
		Name:          AlgoNameAgarwal,
		Description:   "deterministic exact MWC via batched k-source SSSP with candidate pruning",
		Classes:       []Class{Undirected, Directed, UndirectedWeighted, DirectedWeighted},
		Exact:         true,
		Deterministic: true,
		Ratio:         func(Class, float64) float64 { return 1 },
		Estimate:      estAgarwal,
		run:           AgarwalMWCCtx,
	},
	{
		Name:        AlgoNameGirthApx,
		Description: "factor-2 undirected girth approximation from one exact sampled SSSP pass",
		Classes:     []Class{Undirected, UndirectedWeighted},
		// The sigma-detection phase runs on the stretched-graph simulation,
		// which needs weights >= 1.
		RejectsZeroWeight: true,
		Ratio:             func(Class, float64) float64 { return 2 },
		Estimate:          estGirthApx,
		run:               GirthApxMWCCtx,
	},
}

func epsOrDefault(eps float64) float64 {
	if eps > 0 {
		return eps
	}
	return 0.25
}

// Cost is a predicted simulation cost: CONGEST rounds and delivered
// messages. The planner ranks candidates by Rounds; QoS admission charges
// Rounds + Messages, since both cost simulation wall clock (messages
// dominate on dense instances, rounds on gap-heavy ones).
type Cost struct {
	Rounds   float64
	Messages float64
}

// Cost models. Shapes follow the registered round theorems; the leading
// constants are least-squares fits to measured simulator rounds on
// sparse random instances (n in {32, 64, 128}, p = 4/n, maxW = 16, eps =
// 0.25 — the message-bound profile of BenchmarkPortfolio, committed in
// bench/portfolio_baseline.json), so the planner's ranking reflects what
// the simulator actually charges rather than asymptotics alone. The
// headline consequence of honest calibration: the sublinear-round paper
// algorithms carry polylog/eps constants that only pay off at n far
// beyond simulable sizes, so at serving scale the planner prefers the
// linear-round exact engines for everything the guarantees allow.
//
// The message halves are fits to measured messages on random instances
// (n in {32, 64, 96}, p in {4/n, 0.15}, maxW in {4, ..., 1024}) and are
// held to the committed portfolio and CSR hot-path cases by
// TestCostModelCalibration. Every price grows strictly with n, m and, on
// the weighted classes, the weight range (TestPortfolioRegistryShape):
// a bigger job never prices below a smaller one under fair queueing.

// estApprox: O~(sqrt(n)+D) undirected, O~(n^{4/5}+D) directed,
// O~(n^{2/3}+D) and O~(n^{3/5}+D) per scaling level weighted. Messages
// do not depend on eps (stretching delays deliveries, it does not add
// them) and barely on the weights, since the scaling stops at the last
// level that can still improve the answer.
func estApprox(f Features, eps float64) Cost {
	fn, fm := float64(f.N), float64(f.M)
	lg := math.Log2(fn + 2)
	levels := math.Log2(float64(f.MaxWeight)+2) + 1
	switch f.Class {
	case Undirected:
		return Cost{1.8*math.Sqrt(fn)*lg + 1.2*fn, 4.6 * fn * fm}
	case Directed:
		return Cost{38 * math.Pow(fn, 0.8) * lg, 16*fn*fn*lg + 3.6*fn*fm}
	case UndirectedWeighted:
		return Cost{17 * math.Pow(fn, 2.0/3) * lg * levels / epsOrDefault(eps), (17 + levels) * fn * fm}
	default: // DirectedWeighted
		return Cost{42 * math.Pow(fn, 0.6) * lg * levels / epsOrDefault(eps), (17 + levels) * fn * fm}
	}
}

// estExact: one n-source pipelined BFS / Bellman-Ford, O(n + D) rounds
// and O(n·m) messages; the undirected classes pay double rounds for the
// O(n) vector exchange and four messages per edge and source (both
// directions, both exchanges) against one per arc on directed graphs.
func estExact(f Features, _ float64) Cost {
	fn, fm := float64(f.N), float64(f.M)
	switch f.Class {
	case Undirected, UndirectedWeighted:
		return Cost{2.2 * fn, 4.2*fn*fm + weightMessages(f)}
	default:
		return Cost{1.1 * fn, 1.05*fn*fm + weightMessages(f)}
	}
}

// estAgarwal: sqrt(n) batches of sqrt(n)-source runs. The batch barriers
// add a sqrt(n) term over the exact baseline while candidate pruning
// shrinks the linear term (strongly so on directed graphs, where measured
// rounds grow well below 1*n). Pruning cuts the messages to O(sqrt(n)·m)
// except on the undirected unweighted class, where ties keep every flood
// alive and the n·m of the exact baseline remains.
func estAgarwal(f Features, _ float64) Cost {
	fn, fm := float64(f.N), float64(f.M)
	sq := math.Sqrt(fn)
	switch f.Class {
	case Undirected:
		return Cost{1.9*fn + 10*sq, 3.5*fn*fm + weightMessages(f)}
	case UndirectedWeighted:
		return Cost{1.9*fn + 10*sq, 11.5*sq*fm + weightMessages(f)}
	default:
		return Cost{0.8*fn + 8*sq, 2.1*sq*fm + weightMessages(f)}
	}
}

// estGirthApx: one sampled exact SSSP pass (sqrt(n) log n sources) plus
// the sigma-detection BFS, whose stretched simulation scales with the
// weight magnitude on weighted graphs. Messages are the detection BFS's
// O(n·m) on both classes.
func estGirthApx(f Features, _ float64) Cost {
	fn, fm := float64(f.N), float64(f.M)
	lg := math.Log2(fn + 2)
	if f.Class == UndirectedWeighted {
		return Cost{0.9*math.Sqrt(fn)*(lg+float64(f.MaxWeight)) + 0.5*fn, 4.6 * fn * fm}
	}
	return Cost{1.8*math.Sqrt(fn)*lg + 1.2*fn, 4.6 * fn * fm}
}

// weightMessages is the n·log W term of the exact engines' message
// models, whose rounds do not depend on the weights: on weighted
// instances a node re-sends a source's distance each time it improves.
func weightMessages(f Features) float64 {
	return float64(f.N) * math.Log2(float64(f.MaxWeight)+1)
}

// Portfolio returns a copy of the registered algorithm descriptors.
func Portfolio() []AlgorithmInfo {
	out := make([]AlgorithmInfo, len(portfolio))
	copy(out, portfolio)
	return out
}

// AlgorithmByName looks an algorithm up by its registry name.
func AlgorithmByName(name string) (AlgorithmInfo, bool) {
	for _, a := range portfolio {
		if a.Name == name {
			return a, true
		}
	}
	return AlgorithmInfo{}, false
}

// AlgorithmNames lists the registered names, sorted.
func AlgorithmNames() []string {
	names := make([]string, len(portfolio))
	for i, a := range portfolio {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

// RunAlgorithm executes the named portfolio algorithm on the graph. It is
// RunAlgorithmCtx with a background context.
func RunAlgorithm(name string, g *Graph, opts Options) (*Result, error) {
	return RunAlgorithmCtx(context.Background(), name, g, opts)
}

// RunAlgorithmCtx executes the named portfolio algorithm under a context,
// with the same cancellation and partial-progress semantics as
// ApproxMWCCtx. Unknown names and unsupported graph classes return
// descriptive errors before any simulation runs.
func RunAlgorithmCtx(ctx context.Context, name string, g *Graph, opts Options) (*Result, error) {
	a, ok := AlgorithmByName(name)
	if !ok {
		return nil, fmt.Errorf("congestmwc: unknown algorithm %q (registered: %v)", name, AlgorithmNames())
	}
	if !a.ServesClass(g.class) {
		return nil, fmt.Errorf("congestmwc: algorithm %q does not serve class %s", name, g.class)
	}
	return a.run(ctx, g, opts)
}

// AgarwalMWC computes the exact minimum weight cycle with the batched
// deterministic k-source algorithm of internal/agarwal. It is
// AgarwalMWCCtx with a background context.
func AgarwalMWC(g *Graph, opts Options) (*Result, error) {
	return AgarwalMWCCtx(context.Background(), g, opts)
}

// AgarwalMWCCtx is AgarwalMWC under a context, with the same cancellation
// and partial-progress semantics as ApproxMWCCtx.
func AgarwalMWCCtx(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	net, err := congest.NewNetwork(g.g, opts.netOptions())
	if err != nil {
		return nil, fmt.Errorf("congestmwc: %w", err)
	}
	net.SetContext(ctx)
	net.SetObserver(opts.observer)
	res, err := agarwal.MWC(net, agarwal.Spec{})
	if err != nil {
		return partialOnCancel(net, err)
	}
	out := newResult(res.Weight, res.Found, net.Stats())
	out.Cycle = res.Cycle
	return out, nil
}

// GirthApxMWC computes a factor-2 approximate minimum weight cycle on
// undirected graphs with internal/girthapx. It is GirthApxMWCCtx with a
// background context.
func GirthApxMWC(g *Graph, opts Options) (*Result, error) {
	return GirthApxMWCCtx(context.Background(), g, opts)
}

// GirthApxMWCCtx is GirthApxMWC under a context, with the same
// cancellation and partial-progress semantics as ApproxMWCCtx.
func GirthApxMWCCtx(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if g.class != Undirected && g.class != UndirectedWeighted {
		return nil, fmt.Errorf("congestmwc: girthapx serves undirected classes only, not %s", g.class)
	}
	net, err := congest.NewNetwork(g.g, opts.netOptions())
	if err != nil {
		return nil, fmt.Errorf("congestmwc: %w", err)
	}
	net.SetContext(ctx)
	net.SetObserver(opts.observer)
	res, err := girthapx.Run(net, girthapx.Spec{SampleFactor: opts.SampleFactor})
	if err != nil {
		return partialOnCancel(net, err)
	}
	out := newResult(res.Weight, res.Found, net.Stats())
	out.Cycle = res.Cycle
	return out, nil
}
