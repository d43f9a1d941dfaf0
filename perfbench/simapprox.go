package main

// sim-approx: the paper's sublinear approximations on the simulator, one
// instance per graph class, solved one after another on the default
// sequential engine in one goroutine. Almost all of the time is simulation,
// and each instance is dominated by a different phase (uw: the wmwc
// short-cycle levels; dw: ksssp:source-bfs; d: dirmwc:sxs-broadcast; ud:
// girth:sampled-bfs), so engine and algorithm changes show here while no
// service layer runs. One op is a solve of the whole four-instance set.

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/obs"
)

// simSet is the fixed instance set; only the generator and simulation
// seeds vary with --seed. Sizes put each solve at roughly 1-3 s on a
// 2-core host.
var simSet = []struct {
	class string
	n     int
	p     float64 // 0 selects the generator default 4/n
	maxW  int64
}{
	{"uw", 96, 0.15, 16},
	{"dw", 200, 0, 32},
	{"d", 256, 0, 0},
	{"ud", 512, 0, 0},
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median of their process CPU times.
const setupReps = 9

type simCase struct {
	class string
	g     *congestmwc.Graph
	opts  congestmwc.Options
	build time.Duration
}

// buildSimSet generates and builds the instance set through the job
// spec's resolver, the same path a submitted generator spec takes.
func buildSimSet(seed int64) ([]simCase, error) {
	out := make([]simCase, len(simSet))
	for i, in := range simSet {
		spec := jobs.Spec{
			Graph: jobs.GraphSpec{Class: in.class, Gen: &jobs.GenSpec{
				Kind: "random", N: in.n, P: in.p, MaxW: in.maxW, Seed: subSeed(seed, "sim-graph", i),
			}},
			Algo: jobs.AlgoApprox,
		}
		t0 := time.Now()
		g, opts, err := spec.Resolve(0)
		if err != nil {
			return nil, fmt.Errorf("build %s instance: %w", in.class, err)
		}
		opts.Seed = subSeed(seed, "sim-run", i)
		out[i] = simCase{class: in.class, g: g, opts: opts, build: time.Since(t0)}
	}
	return out, nil
}

// simSolve is one instance solve as seen from outside the facade.
type simSolve struct {
	res  *congestmwc.Result
	wall time.Duration
	col  *obs.Collector // traced solves only
}

func solve(c simCase, opts congestmwc.Options, traced bool) (simSolve, error) {
	var col *obs.Collector
	if traced {
		col = &obs.Collector{Wall: true, NoSeries: true, NoPerTag: true, NoPerLink: true}
		opts = opts.WithObserver(col)
	}
	t0 := time.Now()
	res, err := congestmwc.RunAlgorithm(congestmwc.AlgoNameApprox, c.g, opts)
	wall := time.Since(t0)
	if err != nil {
		return simSolve{}, fmt.Errorf("approx on %s: %w", c.class, err)
	}
	return simSolve{res: res, wall: wall, col: col}, nil
}

func solveSet(cases []simCase, parallel, traced bool, procs int) ([]simSolve, time.Duration, error) {
	out := make([]simSolve, len(cases))
	var total time.Duration
	for i, c := range cases {
		opts := c.opts
		if parallel {
			opts.Parallel, opts.Workers = true, procs
		}
		s, err := solve(c, opts, traced)
		if err != nil {
			return nil, 0, err
		}
		out[i] = s
		total += s.wall
	}
	return out, total, nil
}

// sameRun reports how two solves of one instance differ in the figures
// that must repeat exactly for a seed, or "" when they agree.
func sameRun(a, b *congestmwc.Result) string {
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Words != b.Words || a.Weight != b.Weight || a.Found != b.Found {
		return fmt.Sprintf("rounds %d/%d messages %d/%d words %d/%d weight %d/%d",
			a.Rounds, b.Rounds, a.Messages, b.Messages, a.Words, b.Words, a.Weight, b.Weight)
	}
	return ""
}

// setupSim builds the instance set setupReps times and returns the last
// build, the median set-up CPU time, and each instance's median build wall
// time in milliseconds by class.
func setupSim(seed int64) ([]simCase, float64, map[string]float64, error) {
	var times []float64
	perClass := map[string][]float64{}
	var cases []simCase
	for r := 0; r < setupReps; r++ {
		c0 := cpuTime()
		c, err := buildSimSet(seed)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, secs(cpuTime()-c0))
		for _, sc := range c {
			perClass[sc.class] = append(perClass[sc.class], ms(sc.build))
		}
		cases = c
	}
	builds := map[string]float64{}
	for class, b := range perClass {
		builds[class] = median(b)
	}
	return cases, median(times), builds, nil
}

func runSimApprox(cfg config) (*outcome, error) {
	cases, setup, builds, err := setupSim(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSimApprox(cfg, cases, builds)
	}
	out := newOutcome()
	// Whole sets only, at least two so determinism is checked in every
	// run; a set is not started if the mean set time says it would end
	// past --seconds. Each set runs in one goroutine, so its process CPU
	// time is the solve plus the garbage collector's share.
	var sets [][]simSolve
	var walls, cpus []float64
	start := time.Now()
	for len(sets) < 2 || time.Since(start).Seconds()+mean(walls) <= cfg.seconds.Seconds() {
		c0 := cpuTime()
		set, wall, err := solveSet(cases, false, false, cfg.procs)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, ms(cpuTime()-c0))
		sets = append(sets, set)
		walls = append(walls, secs(wall))
	}

	for i, c := range cases {
		ref, err := congestmwc.ReferenceMWC(c.g)
		if err != nil {
			return nil, fmt.Errorf("reference on %s: %w", c.class, err)
		}
		for r, set := range sets {
			out.attempted++
			if d := sameRun(sets[0][i].res, set[i].res); d != "" {
				out.fail("%s: set %d differs from set 0 on the same seed: %s", c.class, r, d)
				continue
			}
			if _, msg := checkAnswer(c.g, congestmwc.AlgoNameApprox, c.opts.Eps, set[i].res, ref); msg != "" {
				out.fail("%s: %s", c.class, msg)
			}
		}
	}
	rounds := 0
	for _, s := range sets[0] {
		rounds += s.res.Rounds
	}
	out.samples = len(cpus)
	out.metrics["setup_s"] = setup
	out.metrics["cpu_ms_per_op"] = median(cpus)
	out.metrics["rounds_per_op"] = float64(rounds)
	return out, nil
}

// checkAnswer checks one MWC answer against the sequential reference:
// found, never below the optimum, within the algorithm's registered ratio,
// and a witness cycle, when present, that verifies at no more than the
// reported weight. It returns the achieved ratio, or a failure message.
func checkAnswer(g *congestmwc.Graph, algo string, eps float64, res *congestmwc.Result, ref int64) (float64, string) {
	info, ok := congestmwc.AlgorithmByName(algo)
	if !ok {
		return 0, fmt.Sprintf("unknown algorithm %q", algo)
	}
	if !res.Found {
		return 0, fmt.Sprintf("%s found no cycle; reference weight %d", algo, ref)
	}
	ratio := float64(res.Weight) / float64(ref)
	bound := info.Ratio(g.Class(), eps)
	if res.Weight < ref || ratio > bound+1e-9 {
		return 0, fmt.Sprintf("%s weight %d against reference %d is outside ratio %.3f", algo, res.Weight, ref, bound)
	}
	if len(res.Cycle) > 0 {
		w, err := g.VerifyCycle(res.Cycle)
		if err != nil {
			return 0, fmt.Sprintf("%s witness does not verify: %v", algo, err)
		}
		if w > res.Weight {
			return 0, fmt.Sprintf("%s witness weighs %d, above the reported %d", algo, w, res.Weight)
		}
	}
	return ratio, ""
}

var levelRE = regexp.MustCompile(`level-([0-9]+)`)

// foldedPhase is one phase path summed over its level-N instances.
type foldedPhase struct {
	rounds, messages int
	wallNs           int64
}

func foldPhases(col *obs.Collector) map[string]foldedPhase {
	out := map[string]foldedPhase{}
	for _, sp := range col.Phases {
		key := levelRE.ReplaceAllString(sp.Path, "level")
		f := out[key]
		f.rounds += sp.Rounds
		f.messages += sp.Messages
		f.wallNs += sp.WallNs
		out[key] = f
	}
	return out
}

// traceSimApprox is the instrumented run: the set once untraced (the
// trace-overhead baseline and the ns/message denominator), once with a
// collector on the sequential engine (the phase ledger) and once with a
// collector on the parallel engine (the speed-up, and a determinism check
// of every phase figure across engines).
func traceSimApprox(cfg config, cases []simCase, builds map[string]float64) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	for class, b := range builds {
		m["graph.build_ms."+class] = b
	}

	plain, plainWall, err := solveSet(cases, false, false, cfg.procs)
	if err != nil {
		return nil, err
	}
	seq, seqWall, err := solveSet(cases, false, true, cfg.procs)
	if err != nil {
		return nil, err
	}
	par, _, err := solveSet(cases, true, true, cfg.procs)
	if err != nil {
		return nil, err
	}

	var messages, words, activations, peak int
	levelsRun, levelsUseful := 0, 0
	ratioMax := 0.0
	var verify []float64
	phases := map[string]foldedPhase{}
	for i, c := range cases {
		s, p := seq[i], par[i]
		out.attempted += 3
		if d := sameRun(plain[i].res, s.res); d != "" {
			out.fail("%s: traced run differs from untraced on the same seed: %s", c.class, d)
		}
		if d := sameRun(s.res, p.res); d != "" {
			out.fail("%s: parallel engine differs from sequential: %s", c.class, d)
		}
		sf, pf := foldPhases(s.col), foldPhases(p.col)
		var sumRounds, sumMessages int
		for path, f := range sf {
			sumRounds += f.rounds
			sumMessages += f.messages
			if g := pf[path]; g.rounds != f.rounds || g.messages != f.messages {
				out.fail("%s: phase %s rounds/messages %d/%d sequential, %d/%d parallel", c.class, path, f.rounds, f.messages, g.rounds, g.messages)
			}
			acc := phases[path]
			acc.rounds += f.rounds
			acc.messages += f.messages
			acc.wallNs += f.wallNs
			phases[path] = acc
		}
		if len(pf) != len(sf) {
			out.fail("%s: %d phase paths sequential, %d parallel", c.class, len(sf), len(pf))
		}
		if sumRounds != s.res.Rounds || sumMessages != s.res.Messages {
			out.fail("%s: phases sum to %d rounds / %d messages, run totals %d / %d", c.class, sumRounds, sumMessages, s.res.Rounds, s.res.Messages)
		}
		messages += s.res.Messages
		words += s.res.Words
		activations += s.col.Activations
		peak = max(peak, s.col.PeakLinkWords)
		m["congest.par_speedup."+c.class] = s.wall.Seconds() / p.wall.Seconds()

		t0 := time.Now()
		ref, err := congestmwc.ReferenceMWC(c.g)
		if err != nil {
			return nil, fmt.Errorf("reference on %s: %w", c.class, err)
		}
		for _, r := range []*congestmwc.Result{plain[i].res, s.res, p.res} {
			if ratio, msg := checkAnswer(c.g, congestmwc.AlgoNameApprox, c.opts.Eps, r, ref); msg != "" {
				out.fail("%s: %s", c.class, msg)
			} else {
				ratioMax = math.Max(ratioMax, ratio)
			}
		}
		verify = append(verify, ms(time.Since(t0)))

		// The (2+eps) guarantee needs only short-cycle levels up to
		// ceil(log2 w(C)); the rest are the work an early exit would save.
		useful := int(math.Ceil(math.Log2(float64(ref))))
		for _, sp := range s.col.Phases {
			if mm := levelRE.FindStringSubmatch(sp.Path); mm != nil && sp.Path == "wmwc:short-cycles/"+mm[0] {
				levelsRun++
				if lv, _ := strconv.Atoi(mm[1]); lv <= useful {
					levelsUseful++
				}
			}
		}
	}
	byName := map[string]foldedPhase{}
	for path, f := range phases {
		name := metricName(path)
		if !cfg.phases[name] {
			name = "phase.other"
		}
		acc := byName[name]
		acc.rounds += f.rounds
		acc.messages += f.messages
		acc.wallNs += f.wallNs
		byName[name] = acc
	}
	for name, f := range byName {
		m[name+".s"] = float64(f.wallNs) / 1e9
		m[name+".rounds"] = float64(f.rounds)
		m[name+".messages"] = float64(f.messages)
	}
	m["congest.messages"] = float64(messages)
	m["congest.words"] = float64(words)
	m["congest.activations"] = float64(activations)
	m["congest.peak_link_words"] = float64(peak)
	m["congest.ns_per_msg"] = float64(plainWall.Nanoseconds()) / float64(messages)
	m["wmwc.levels_run"] = float64(levelsRun)
	m["wmwc.useful_level_share"] = share(float64(levelsUseful), float64(levelsRun))
	m["check.ratio_max"] = ratioMax
	m["check.verify_ms"] = median(verify)
	m["trace_overhead"] = seqWall.Seconds()/plainWall.Seconds() - 1
	// One untraced set is one sample: no p99.
	m["wall.ops_per_s"] = 1 / plainWall.Seconds()
	m["wall.op_p50_ms"] = ms(plainWall)
	return out, nil
}

// declaredPhases returns the folded phase names BENCHMARK.json declares
// per-layer metrics for: the name of every "<name>.rounds" metric but
// phase.other. Paths outside them are summed into phase.other, so a new
// phase shows without breaking the run.
func declaredPhases(def *benchDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range def.PerLayer {
		if name, ok := strings.CutSuffix(d.Name, ".rounds"); ok && name != "phase.other" {
			out[name] = true
		}
	}
	return out
}

// metricName maps a phase path to a metric name: ':' and '/' become '.'.
func metricName(path string) string {
	return strings.NewReplacer(":", ".", "/", ".").Replace(path)
}
