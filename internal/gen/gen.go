// Package gen constructs the graph families used throughout the test suite
// and the benchmark harness: random graphs, planted-cycle instances with a
// known minimum weight cycle, structured topologies (rings, grids, paths)
// and the lower-bound reduction families of the paper (which live in
// internal/lb but reuse the helpers here).
//
// All generators are deterministic given their seed and always return
// connected communication graphs (CONGEST requires a connected network), by
// adding a Hamiltonian-path backbone when random edges alone do not connect
// the graph.
package gen

import (
	"fmt"
	"math/rand"

	"congestmwc/internal/graph"
)

// Random describes a random graph instance.
type Random struct {
	N        int     // number of vertices (>= 2)
	P        float64 // edge probability for each ordered/unordered pair
	Directed bool
	Weighted bool
	MaxW     int64 // weights drawn uniformly from [1, MaxW]; ignored if !Weighted
	Seed     int64
}

// Graph builds the random graph. A path backbone 0-1-...-n-1 (both
// directions when directed, so the instance remains strongly connected and
// always contains at least one directed cycle) guarantees connectivity.
func (r Random) Graph() (*graph.Graph, error) {
	if r.N < 2 {
		return nil, fmt.Errorf("gen: random graph needs N >= 2, got %d", r.N)
	}
	if r.P < 0 || r.P > 1 {
		return nil, fmt.Errorf("gen: probability %v out of [0,1]", r.P)
	}
	maxW := r.MaxW
	if maxW < 1 {
		maxW = 1
	}
	rng := rand.New(rand.NewSource(r.Seed))
	weight := func() int64 {
		if !r.Weighted {
			return 1
		}
		return 1 + rng.Int63n(maxW)
	}
	type key struct{ u, v int }
	seen := make(map[key]bool)
	var edges []graph.Edge
	add := func(u, v int) {
		a, b := u, v
		if !r.Directed && a > b {
			a, b = b, a
		}
		if u == v || seen[key{a, b}] {
			return
		}
		seen[key{a, b}] = true
		edges = append(edges, graph.Edge{From: u, To: v, Weight: weight()})
	}
	// Backbone.
	for i := 0; i+1 < r.N; i++ {
		add(i, i+1)
		if r.Directed {
			add(i+1, i)
		}
	}
	// Random edges.
	for u := 0; u < r.N; u++ {
		for v := 0; v < r.N; v++ {
			if u == v {
				continue
			}
			if !r.Directed && u > v {
				continue
			}
			if rng.Float64() < r.P {
				add(u, v)
			}
		}
	}
	return graph.Build(r.N, edges, graph.Options{Directed: r.Directed, Weighted: r.Weighted})
}

// PortfolioProfile is the message-bound profile of the portfolio
// benchmark (the root BenchmarkPortfolio and `mwcbench -portfolio`, whose
// output is bench/portfolio_baseline.json): a dense random graph at n=96
// (p=0.15, ~9x the connectivity threshold) where traffic, not diameter,
// dominates. It returns the instance for the named portfolio algorithm
// and its workload text. girthapx runs on the unweighted class, since its
// stretched phase is pseudo-polynomial in the weights; every other
// algorithm runs on the undirected-weighted class with maxW = 16.
func PortfolioProfile(algo string) (r Random, workload string) {
	if algo == "girthapx" {
		return Random{N: 96, P: 0.15, Seed: 7},
			"dense random undirected unweighted, n=96, p=0.15, fixed seeds"
	}
	return Random{N: 96, P: 0.15, Seed: 7, Weighted: true, MaxW: 16},
		"dense random undirected-weighted, n=96, p=0.15, maxW=16, fixed seeds"
}

// PlantedCycle describes an instance with a known-weight planted minimum
// cycle: a sparse random background graph with heavy weights plus one light
// cycle of a chosen length whose total weight is guaranteed to be the MWC.
type PlantedCycle struct {
	N             int   // number of vertices
	CycleLen      int   // number of vertices on the planted cycle (>= 3, or >= 2 for directed)
	CycleW        int64 // total weight of the planted cycle
	Directed      bool
	Weighted      bool
	BackgroundDeg int // expected extra out-degree of background edges
	Seed          int64
}

// Graph builds the instance and returns it together with the planted MWC
// weight. Background edges get weight > CycleW each so no other cycle can be
// lighter; for unweighted instances the background is a tree plus the cycle,
// so the planted cycle is the unique cycle... for directed unweighted the
// backbone anti-parallel pairs would form 2-cycles, so the unweighted
// background is an out-tree plus return paths longer than CycleLen.
func (p PlantedCycle) Graph() (*graph.Graph, int64, error) {
	minLen := 3
	if p.Directed {
		minLen = 2
	}
	if p.CycleLen < minLen || p.CycleLen > p.N {
		return nil, 0, fmt.Errorf("gen: cycle length %d out of range [%d,%d]", p.CycleLen, minLen, p.N)
	}
	if !p.Weighted {
		return p.unweightedGraph()
	}
	if p.CycleW < int64(p.CycleLen) {
		return nil, 0, fmt.Errorf("gen: cycle weight %d too small for %d positive-weight edges", p.CycleW, p.CycleLen)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	type key struct{ u, v int }
	seen := make(map[key]bool)
	var edges []graph.Edge
	add := func(u, v int, w int64) {
		a, b := u, v
		if !p.Directed && a > b {
			a, b = b, a
		}
		if u == v || seen[key{a, b}] {
			return
		}
		seen[key{a, b}] = true
		edges = append(edges, graph.Edge{From: u, To: v, Weight: w})
	}
	heavy := func() int64 { return p.CycleW + 1 + rng.Int63n(p.CycleW+1) }
	// Planted cycle on vertices 0..CycleLen-1, splitting CycleW across edges.
	remaining := p.CycleW
	for i := 0; i < p.CycleLen; i++ {
		edgesLeft := int64(p.CycleLen - i)
		w := int64(1)
		if edgesLeft > 1 {
			maxHere := remaining - (edgesLeft - 1) // leave >=1 per remaining edge
			w = 1 + rng.Int63n(maxHere)
		} else {
			w = remaining
		}
		remaining -= w
		add(i, (i+1)%p.CycleLen, w)
	}
	// Heavy connected background: path backbone + random heavy edges.
	for i := 0; i+1 < p.N; i++ {
		add(i, i+1, heavy())
		if p.Directed {
			add(i+1, i, heavy())
		}
	}
	deg := p.BackgroundDeg
	for i := 0; i < p.N*deg; i++ {
		add(rng.Intn(p.N), rng.Intn(p.N), heavy())
	}
	g, err := graph.Build(p.N, edges, graph.Options{Directed: p.Directed, Weighted: true})
	if err != nil {
		return nil, 0, err
	}
	return g, p.CycleW, nil
}

// unweightedGraph plants a cycle of length CycleLen in an otherwise acyclic
// (directed) or forest-plus-long-cycles (undirected) background so the
// planted cycle is the minimum.
func (p PlantedCycle) unweightedGraph() (*graph.Graph, int64, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	type key struct{ u, v int }
	seen := make(map[key]bool)
	var edges []graph.Edge
	add := func(u, v int) bool {
		a, b := u, v
		if !p.Directed && a > b {
			a, b = b, a
		}
		if u == v || seen[key{a, b}] {
			return false
		}
		seen[key{a, b}] = true
		edges = append(edges, graph.Edge{From: u, To: v})
		return true
	}
	// Planted cycle on 0..CycleLen-1.
	for i := 0; i < p.CycleLen; i++ {
		add(i, (i+1)%p.CycleLen)
	}
	if p.Directed {
		// DAG background on the full vertex set: edges only from lower to
		// higher IDs among vertices >= CycleLen, plus tree edges attaching
		// them to the cycle. DAG edges cannot create new cycles.
		for v := p.CycleLen; v < p.N; v++ {
			add(rng.Intn(v), v)
		}
		for i := 0; i < p.N*p.BackgroundDeg; i++ {
			u, v := rng.Intn(p.N), rng.Intn(p.N)
			if u >= v { // keep it a DAG outside the cycle
				continue
			}
			if u < p.CycleLen && v < p.CycleLen {
				continue // avoid chords inside the planted cycle
			}
			add(u, v)
		}
	} else {
		// Tree background: attach each extra vertex to a random earlier one.
		// A tree adds no cycles, so the planted cycle stays unique.
		for v := p.CycleLen; v < p.N; v++ {
			add(rng.Intn(v), v)
		}
	}
	g, err := graph.Build(p.N, edges, graph.Options{Directed: p.Directed})
	if err != nil {
		return nil, 0, err
	}
	return g, int64(p.CycleLen), nil
}

// Ring returns the n-cycle (directed or undirected, unit weights unless
// weighted with all weights w).
func Ring(n int, directed bool, weighted bool, w int64) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{From: i, To: (i + 1) % n, Weight: w})
	}
	return graph.MustBuild(n, edges, graph.Options{Directed: directed, Weighted: weighted})
}

// Grid returns the rows x cols undirected grid graph, optionally weighted
// with weights drawn uniformly from [1, maxW].
func Grid(rows, cols int, weighted bool, maxW int64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	weight := func() int64 {
		if !weighted {
			return 1
		}
		if maxW < 1 {
			maxW = 1
		}
		return 1 + rng.Int63n(maxW)
	}
	id := func(r, c int) int { return r*cols + c }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r, c+1), Weight: weight()})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{From: id(r, c), To: id(r+1, c), Weight: weight()})
			}
		}
	}
	return graph.MustBuild(rows*cols, edges, graph.Options{Weighted: weighted})
}

// Path returns the n-vertex path graph (undirected).
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{From: i, To: i + 1})
	}
	return graph.MustBuild(n, edges, graph.Options{})
}

// RandomRegular returns a connected random d-regular undirected graph on n
// vertices via the configuration model with rejection (n*d must be even,
// d >= 2, d < n). Regular graphs are the classical expander-like workloads
// for distributed algorithms: low diameter, no degree hot spots.
func RandomRegular(n, d int, seed int64) (*graph.Graph, error) {
	if d < 2 || d >= n {
		return nil, fmt.Errorf("gen: regular degree %d out of range [2,%d)", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n*d = %d*%d must be even", n, d)
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 200; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		type key struct{ u, v int }
		seen := make(map[key]bool, n*d/2)
		edges := make([]graph.Edge, 0, n*d/2)
		ok := true
		for i := 0; i+1 < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if u == v || seen[key{a, b}] {
				ok = false
				break
			}
			seen[key{a, b}] = true
			edges = append(edges, graph.Edge{From: u, To: v})
		}
		if !ok {
			continue
		}
		g, err := graph.Build(n, edges, graph.Options{})
		if err != nil || !g.ConnectedComm() {
			continue
		}
		return g, nil
	}
	return nil, fmt.Errorf("gen: could not realise a connected %d-regular graph on %d vertices", d, n)
}
