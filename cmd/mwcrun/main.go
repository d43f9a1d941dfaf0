// Command mwcrun runs one MWC (or multi-source shortest path) algorithm on
// a generated or file-loaded graph and prints the answer together with its
// CONGEST cost.
//
// Examples:
//
//	mwcrun -gen random -n 200 -class d -algo approx
//	mwcrun -gen planted -n 150 -class uw -cyclelen 6 -cyclew 40 -algo approx -eps 0.25
//	mwcrun -graph instance.gr -algo exact
//	mwcrun -gen random -n 300 -class d -algo ksssp -k 17
//
// Observability (see docs/OBSERVABILITY.md):
//
//	mwcrun -gen random -n 200 -class uw -algo approx -metrics out.json -phases
//	mwcrun -gen ring -n 64 -algo exact -trace trace.jsonl -cpuprofile cpu.pprof
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"congestmwc"
	"congestmwc/internal/agarwal"
	"congestmwc/internal/congest"
	"congestmwc/internal/dirmwc"
	"congestmwc/internal/dot"
	"congestmwc/internal/exact"
	"congestmwc/internal/gen"
	"congestmwc/internal/girth"
	"congestmwc/internal/girthapx"
	"congestmwc/internal/graph"
	"congestmwc/internal/graphio"
	"congestmwc/internal/ksssp"
	"congestmwc/internal/obs"
	"congestmwc/internal/seq"
	"congestmwc/internal/wmwc"
)

// Exit codes: 0 success, 1 error, 2 run aborted by -deadline or a signal.
const exitAborted = 2

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mwcrun:", err)
		if errors.Is(err, congest.ErrCanceled) {
			os.Exit(exitAborted)
		}
		os.Exit(1)
	}
}

type config struct {
	graphFile string
	genKind   string
	class     string
	n         int
	p         float64
	maxW      int64
	cycleLen  int
	cycleW    int64
	algo      string
	guarantee string
	k         int
	eps       float64
	seed      int64
	bandwidth int
	parallel  bool
	stepwise  bool
	check     bool
	dotFile   string
	traceMsgs int

	metricsFile string
	traceFile   string
	phases      bool
	sampleMsgs  int
	cpuProfile  string

	deadline time.Duration
}

func run(args []string) error {
	fs := flag.NewFlagSet("mwcrun", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.graphFile, "graph", "", "graph file (graphio format); overrides -gen")
	fs.StringVar(&cfg.genKind, "gen", "random", "generator: random | ring | grid | planted")
	fs.StringVar(&cfg.class, "class", "d", "graph class: ud | d | uw | dw")
	fs.IntVar(&cfg.n, "n", 100, "number of vertices")
	fs.Float64Var(&cfg.p, "p", 0, "random edge probability (0 = 4/n)")
	fs.Int64Var(&cfg.maxW, "maxw", 16, "maximum edge weight for weighted classes")
	fs.IntVar(&cfg.cycleLen, "cyclelen", 5, "planted cycle length")
	fs.Int64Var(&cfg.cycleW, "cyclew", 0, "planted cycle weight (0 = cyclelen*maxw/2)")
	fs.StringVar(&cfg.algo, "algo", "approx", "algorithm: approx | exact | agarwal | girthapx | ksssp")
	fs.StringVar(&cfg.guarantee, "guarantee", "", "let the planner pick the algorithm for this guarantee (exact | girth | 2 | 2+eps | a ratio >= 1); mutually exclusive with -algo")
	fs.IntVar(&cfg.k, "k", 0, "number of sources for ksssp (0 = ceil(sqrt(n)))")
	fs.Float64Var(&cfg.eps, "eps", 0.25, "accuracy for weighted approximations")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.IntVar(&cfg.bandwidth, "bandwidth", 0, "link bandwidth in words per round (0 = default)")
	fs.BoolVar(&cfg.parallel, "parallel", false, "run node handlers on worker goroutines")
	fs.BoolVar(&cfg.stepwise, "stepwise", false, "iterate every round one by one instead of event-driven round skipping (debug/reference mode, identical results)")
	fs.BoolVar(&cfg.check, "check", true, "compare against the sequential reference")
	fs.StringVar(&cfg.dotFile, "dot", "", "write the instance (with the witness cycle highlighted, if any) as Graphviz DOT to this file")
	fs.IntVar(&cfg.traceMsgs, "tracemsgs", 0, "print the first N delivered messages as text (simulator trace)")
	fs.StringVar(&cfg.metricsFile, "metrics", "", "write a JSON metrics summary (per-round series, per-tag words, phase table) to this file; '-' for stdout")
	fs.StringVar(&cfg.traceFile, "trace", "", "stream every simulation event as JSON lines to this file")
	fs.BoolVar(&cfg.phases, "phases", false, "print the phase-span table after the run")
	fs.IntVar(&cfg.sampleMsgs, "samplemsgs", 0, "keep a uniform reservoir sample of N message events in the metrics summary")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "abort the run after this wall-clock budget (0 = none); exit code 2 on timeout or interrupt")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := buildGraph(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d directed=%v weighted=%v\n", g.N(), g.M(), g.Directed(), g.Weighted())

	if cfg.guarantee != "" {
		algoSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "algo" {
				algoSet = true
			}
		})
		if algoSet {
			return fmt.Errorf("-algo and -guarantee are mutually exclusive: name one")
		}
		dec, err := congestmwc.PlanFeatures(featuresOf(g), congestmwc.Guarantee(cfg.guarantee),
			congestmwc.Options{Eps: cfg.eps})
		if err != nil {
			return err
		}
		fmt.Printf("planner: %s (ratio %.3g, est %.0f rounds) — %s\n",
			dec.Algorithm, dec.Ratio, dec.EstRounds, dec.Reason)
		cfg.algo = dec.Algorithm
	}

	net, err := congest.NewNetwork(g, congest.Options{
		Seed: cfg.seed, Bandwidth: cfg.bandwidth, Parallel: cfg.parallel,
		Stepwise: cfg.stepwise,
	})
	if err != nil {
		return err
	}
	// Run under a context so SIGINT/SIGTERM (and -deadline, when set) abort
	// the simulation within one executed round instead of killing the
	// process mid-run; main maps the abort to exit code 2.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	net.SetContext(ctx)
	// Assemble the observer stack the flags ask for.
	var observers []congest.Observer
	if cfg.traceMsgs > 0 {
		observers = append(observers, &congest.TraceWriter{W: os.Stdout, MaxMessages: cfg.traceMsgs})
	}
	var col *obs.Collector
	if cfg.metricsFile != "" || cfg.phases {
		col = &obs.Collector{Wall: true, SampleMessages: cfg.sampleMsgs}
		observers = append(observers, col)
	}
	var (
		traceOut  *os.File
		traceBuf  *bufio.Writer
		traceJSON *obs.JSONL
	)
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		traceOut, traceBuf = f, bufio.NewWriter(f)
		traceJSON = &obs.JSONL{W: traceBuf}
		observers = append(observers, traceJSON)
	}
	net.SetObserver(congest.Multi(observers...))
	if cfg.cpuProfile != "" {
		stop, err := obs.StartCPUProfile(cfg.cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	switch cfg.algo {
	case "approx":
		err = runApprox(cfg, g, net)
	case "exact":
		err = runExact(cfg, g, net)
	case "agarwal":
		err = runAgarwal(cfg, g, net)
	case "girthapx":
		err = runGirthApx(cfg, g, net)
	case "ksssp":
		err = runKSSSP(cfg, g, net)
	default:
		err = fmt.Errorf("unknown algorithm %q", cfg.algo)
	}
	if err != nil {
		return err
	}
	return writeObs(cfg, col, traceJSON, traceBuf, traceOut)
}

// writeObs emits the observability outputs after a successful run.
func writeObs(cfg config, col *obs.Collector, traceJSON *obs.JSONL, traceBuf *bufio.Writer, traceOut *os.File) error {
	if traceJSON != nil {
		if err := traceJSON.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := traceOut.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote event trace to %s\n", cfg.traceFile)
	}
	if col == nil {
		return nil
	}
	sum := col.Summary()
	if cfg.phases {
		fmt.Println()
		obs.WritePhaseTable(os.Stdout, sum.Phases)
	}
	if cfg.metricsFile != "" {
		var w io.Writer = os.Stdout
		if cfg.metricsFile != "-" {
			f, err := os.Create(cfg.metricsFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := sum.WriteJSON(w); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if cfg.metricsFile != "-" {
			fmt.Printf("wrote metrics to %s\n", cfg.metricsFile)
		}
	}
	return nil
}

func buildGraph(cfg config) (*graph.Graph, error) {
	if cfg.graphFile != "" {
		f, err := os.Open(cfg.graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graphio.Read(f)
	}
	directed := cfg.class == "d" || cfg.class == "dw"
	weighted := cfg.class == "uw" || cfg.class == "dw"
	if !directed && cfg.class != "ud" && cfg.class != "uw" {
		return nil, fmt.Errorf("unknown class %q", cfg.class)
	}
	switch cfg.genKind {
	case "random":
		p := cfg.p
		if p <= 0 {
			p = 4 / float64(cfg.n)
		}
		return gen.Random{
			N: cfg.n, P: p, Directed: directed, Weighted: weighted,
			MaxW: cfg.maxW, Seed: cfg.seed,
		}.Graph()
	case "ring":
		w := int64(1)
		if weighted {
			w = cfg.maxW
		}
		return gen.Ring(cfg.n, directed, weighted, w), nil
	case "grid":
		if directed {
			return nil, fmt.Errorf("grid generator is undirected")
		}
		side := int(math.Ceil(math.Sqrt(float64(cfg.n))))
		return gen.Grid(side, side, weighted, cfg.maxW, cfg.seed), nil
	case "planted":
		cw := cfg.cycleW
		if cw == 0 {
			cw = int64(cfg.cycleLen) * cfg.maxW / 2
		}
		g, planted, err := gen.PlantedCycle{
			N: cfg.n, CycleLen: cfg.cycleLen, CycleW: cw,
			Directed: directed, Weighted: weighted, BackgroundDeg: 2, Seed: cfg.seed,
		}.Graph()
		if err != nil {
			return nil, err
		}
		fmt.Printf("planted MWC weight: %d\n", planted)
		return g, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", cfg.genKind)
	}
}

func runApprox(cfg config, g *graph.Graph, net *congest.Network) error {
	var (
		weight  int64
		found   bool
		label   string
		witness []int
	)
	switch {
	case !g.Directed() && !g.Weighted():
		res, err := girth.Run(net, girth.Spec{})
		if err != nil {
			return err
		}
		weight, found, label = res.Weight, res.Found, "(2-1/g)-approx girth, O~(sqrt(n)+D)"
		witness = res.Cycle
	case g.Directed() && !g.Weighted():
		res, err := dirmwc.Run(net, dirmwc.Spec{})
		if err != nil {
			return err
		}
		weight, found, label = res.Weight, res.Found, "2-approx directed MWC, O~(n^{4/5}+D)"
	default:
		res, err := wmwc.Run(net, wmwc.Spec{Eps: cfg.eps})
		if err != nil {
			return err
		}
		weight, found, label = res.Weight, res.Found,
			fmt.Sprintf("(2+%.2g)-approx weighted MWC", cfg.eps)
	}
	printMWC(cfg, g, net, label, weight, found)
	if found && len(witness) > 0 {
		fmt.Printf("witness cycle: %v\n", witness)
	}
	return writeDot(cfg, g, witness)
}

// featuresOf maps an internal graph onto the planner's feature vector.
func featuresOf(g *graph.Graph) congestmwc.Features {
	class := congestmwc.Undirected
	switch {
	case g.Directed() && g.Weighted():
		class = congestmwc.DirectedWeighted
	case g.Directed():
		class = congestmwc.Directed
	case g.Weighted():
		class = congestmwc.UndirectedWeighted
	}
	f := congestmwc.Features{Class: class, N: g.N(), M: g.M(), MaxWeight: g.MaxWeight()}
	if g.Weighted() {
		for v := 0; v < g.N() && !f.HasZeroWeight; v++ {
			for _, a := range g.Out(v) {
				if a.Weight == 0 {
					f.HasZeroWeight = true
					break
				}
			}
		}
	}
	return f
}

func runAgarwal(cfg config, g *graph.Graph, net *congest.Network) error {
	res, err := agarwal.MWC(net, agarwal.Spec{})
	if err != nil {
		return err
	}
	printMWC(cfg, g, net, fmt.Sprintf("exact MWC via batched k-source SSSP (%d batches)", res.Batches), res.Weight, res.Found)
	if res.Found && len(res.Cycle) > 0 {
		fmt.Printf("witness cycle: %v\n", res.Cycle)
	}
	return writeDot(cfg, g, res.Cycle)
}

func runGirthApx(cfg config, g *graph.Graph, net *congest.Network) error {
	res, err := girthapx.Run(net, girthapx.Spec{})
	if err != nil {
		return err
	}
	printMWC(cfg, g, net, "(2 - 1/g)-approximate girth, O~(sqrt(n) + D)", res.Weight, res.Found)
	if res.Found && len(res.Cycle) > 0 {
		fmt.Printf("witness cycle: %v\n", res.Cycle)
	}
	return writeDot(cfg, g, res.Cycle)
}

func runExact(cfg config, g *graph.Graph, net *congest.Network) error {
	res, err := exact.MWC(net)
	if err != nil {
		return err
	}
	printMWC(cfg, g, net, "exact MWC via APSP, O~(n)", res.Weight, res.Found)
	if res.Found && len(res.Cycle) > 0 {
		fmt.Printf("witness cycle: %v\n", res.Cycle)
	}
	return writeDot(cfg, g, res.Cycle)
}

// writeDot renders the instance (and witness, if any) when -dot is set.
func writeDot(cfg config, g *graph.Graph, cycle []int) error {
	if cfg.dotFile == "" {
		return nil
	}
	f, err := os.Create(cfg.dotFile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dot.Write(f, g, dot.Options{Highlight: cycle, ShowWeights: true}); err != nil {
		return err
	}
	fmt.Printf("wrote DOT to %s\n", cfg.dotFile)
	return nil
}

func printMWC(cfg config, g *graph.Graph, net *congest.Network, label string, weight int64, found bool) {
	fmt.Printf("algorithm: %s\n", label)
	if found {
		fmt.Printf("cycle weight: %d\n", weight)
	} else {
		fmt.Println("cycle weight: none (acyclic)")
	}
	s := net.Stats()
	fmt.Printf("rounds: %d  messages: %d  words: %d\n", s.Rounds, s.Messages, s.Words)
	if cfg.check {
		truth, ok := seq.MWC(g)
		switch {
		case ok && found:
			fmt.Printf("reference MWC: %d  ratio: %.3f\n", truth, float64(weight)/float64(truth))
		case ok != found:
			fmt.Printf("reference MWC disagrees: found=%v reference ok=%v\n", found, ok)
		default:
			fmt.Println("reference MWC: none (acyclic) — agrees")
		}
	}
}

func runKSSSP(cfg config, g *graph.Graph, net *congest.Network) error {
	k := cfg.k
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(g.N()))))
	}
	sources := make([]int, k)
	for i := range sources {
		sources[i] = i * g.N() / k
	}
	eps := 0.0
	if g.Weighted() {
		eps = cfg.eps
	}
	res, err := ksssp.Run(net, ksssp.Spec{Sources: sources, Eps: eps})
	if err != nil {
		return err
	}
	reached := 0
	for v := 0; v < g.N(); v++ {
		for i := range sources {
			if res.Dist[v][i] < seq.Inf {
				reached++
			}
		}
	}
	fmt.Printf("algorithm: %d-source %s (Theorem 1.6)\n", k, map[bool]string{true: "(1+eps)-approx SSSP", false: "exact BFS"}[g.Weighted()])
	fmt.Printf("sources: %s\n", joinInts(sources))
	fmt.Printf("reachable (source,vertex) pairs: %d / %d\n", reached, k*g.N())
	s := net.Stats()
	fmt.Printf("rounds: %d  messages: %d  words: %d\n", s.Rounds, s.Messages, s.Words)
	if cfg.check {
		worst := 1.0
		for i, src := range sources {
			want := seq.Dijkstra(g, src)
			for v := 0; v < g.N(); v++ {
				if want[v] >= seq.Inf || want[v] == 0 {
					continue
				}
				if r := float64(res.Dist[v][i]) / float64(want[v]); r > worst {
					worst = r
				}
			}
		}
		fmt.Printf("worst distance ratio vs reference: %.4f\n", worst)
	}
	return nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}
