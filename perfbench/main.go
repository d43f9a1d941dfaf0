// Command perfbench is the repository benchmark. It drives the CONGEST
// simulator, the job service and the dynamic-session layer from outside,
// through their exported functions and interfaces, on inputs generated from
// --seed, checks every answer after the timed interval, and prints one JSON
// result line as the last line of standard output. A human-readable table
// goes to standard error.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload sim-approx --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The workloads, the metrics and the reasons for them are recorded in
// BENCHMARK.json, which the program reads to name and unit its output: a
// metric the code computes but BENCHMARK.json does not declare is a bug in
// the benchmark and stops the run. With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 a separately instrumented run reports
// the per-layer metrics, with 0 for layers the workload does not exercise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// benchFile is where BENCHMARK.json sits relative to the repository root,
// the working directory the benchmark is run from.
const benchFile = "BENCHMARK.json"

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// config is one invocation's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	procs   int             // client goroutines and service workers: one per CPU
	phases  map[string]bool // folded phase names with declared per-layer metrics
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few failure descriptions, for stderr
	samples   int      // ops behind cpu_ms_per_op
	metrics   map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed op. Only the first few descriptions are kept.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"sim-approx":   runSimApprox,
	"service-mix":  runServiceMix,
	"session-edit": runSessionEdit,
}

func main() {
	workload := flag.String("workload", "", "workload to run: sim-approx | service-mix | session-edit | all")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the instrumented variant and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	def, err := loadBenchDef(benchFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		procs:   runtime.NumCPU(),
		phases:  declaredPhases(def),
	}
	run, ok := workloads[*workload]
	if !ok && *workload != "all" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *workload != "sim-approx" {
		if code, ok := inRAMDisk(); ok {
			os.Exit(code)
		}
	}
	if *workload == "all" {
		os.Exit(runAll(def, cfg))
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, ok, err := resultLine(def, cfg, *workload, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !ok {
		os.Exit(1)
	}
}

// runAll runs every workload in turn and prints one table with every
// metric by name and unit, plus the error rate, for each of them.
func runAll(def *benchDef, cfg config) int {
	code := 0
	for _, w := range def.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: BENCHMARK.json names unknown workload %q\n", w.Name)
			return 2
		}
		out, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		if _, ok, err := resultLine(def, cfg, w.Name, out); err != nil || !ok {
			code = 1
		}
	}
	return code
}

func loadBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition (run from the repository root): %w", err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &def, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the contract line for one workload run and prints the
// human-readable table to stderr. The metric set is exactly the declared
// one: every end-to-end metric must have been measured and be non-zero;
// per-layer metrics a workload does not exercise read 0.
func resultLine(def *benchDef, cfg config, workload string, out *outcome) (string, bool, error) {
	defs := def.EndToEnd
	if cfg.trace {
		defs = def.PerLayer
	}
	declared := map[string]bool{}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := out.metrics[d.Name]
		if !cfg.trace && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			return "", false, fmt.Errorf("end-to-end metric %s not measured (got %v)", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", false, fmt.Errorf("per-layer metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range out.metrics {
		if !declared[name] {
			return "", false, fmt.Errorf("metric %s is computed but not declared in %s", name, benchFile)
		}
	}
	printTable(workload, cfg, defs, res, out)
	data, err := json.Marshal(res)
	if err != nil {
		return "", false, err
	}
	return string(data), res.Correct, nil
}

func printTable(workload string, cfg config, defs []metricDef, res result, out *outcome) {
	w := os.Stderr
	mode := "timed"
	if cfg.trace {
		mode = "traced"
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	store := ""
	if workload != "sim-approx" {
		store = ", job store on " + storeMedium
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %v, %d procs%s)\n", workload, mode, cfg.seed, cfg.seconds, cfg.procs, store)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-52s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	if !cfg.trace {
		fmt.Fprintf(w, "  %-52s %16d count\n", "ops measured", out.samples)
	}
	fmt.Fprintf(w, "  %-52s %16.6g share (%d failed of %d attempted)\n", "error_rate", errRate, res.Failed, res.Attempted)
	for _, f := range out.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// cpuTime is the CPU time the process has used so far, all threads
// together, from CLOCK_PROCESS_CPUTIME_ID. It is the benchmark's clock for
// the bounded metrics: on a shared host another tenant or the hypervisor
// can take a vCPU away for seconds, which stretches wall time by tens of
// percent from one minute to the next but not the CPU time the program
// spends on the same work.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID

// cpuDuring returns a channel that receives the process CPU time spent
// between from and to, once to has passed.
func cpuDuring(from, to time.Time) <-chan time.Duration {
	ch := make(chan time.Duration, 1)
	go func() {
		time.Sleep(time.Until(from))
		c0 := cpuTime()
		time.Sleep(time.Until(to))
		ch <- cpuTime() - c0
	}()
	return ch
}

// closedLoop is what a service workload's clients saw in the measured
// window [from, to): the process CPU time spent in it and, for each op
// that completed in it, the latency in milliseconds.
type closedLoop struct {
	from, to time.Time
	cpu      time.Duration
	latMs    []float64
}

func (c *closedLoop) add(done time.Time, lat time.Duration) {
	if !done.Before(c.from) && done.Before(c.to) {
		c.latMs = append(c.latMs, ms(lat))
	}
}

// report sets cpu_ms_per_op, the process CPU time in the window over the
// ops completed in it, and returns the number of ops.
func (c *closedLoop) report(m map[string]float64) int {
	m["cpu_ms_per_op"] = ms(c.cpu) / float64(len(c.latMs))
	return len(c.latMs)
}

// wall sets the unbounded wall-clock figures of the traced run: ops
// completed per second of the window and the latency quantiles.
func (c *closedLoop) wall(m map[string]float64) {
	m["wall.ops_per_s"] = float64(len(c.latMs)) / c.to.Sub(c.from).Seconds()
	m["wall.op_p50_ms"] = quantile(c.latMs, 0.5)
	m["wall.op_p99_ms"] = quantile(c.latMs, 0.99)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ms, us and secs convert durations to the float units the metrics use.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// subSeed derives an independent, reproducible seed for one named input
// stream of a run, so adding a stream never shifts the others.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() >> 1)
}
