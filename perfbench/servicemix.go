package main

// service-mix: a closed loop of one client per CPU submitting small
// generated instances to POST /v1/jobs and long-polling
// GET /v1/jobs/{id}?wait= until the job is terminal. Each simulation takes
// only milliseconds, so HTTP decoding, admission (resolve, plan, cache key
// and the journal append under the service mutex), queue wait, cache and
// journal are a large share of every job. A hot set of specs takes a fixed
// share of the submissions, so a sizeable share are cache hits or
// in-flight dedups; with uniform popularity almost none would be. No
// approx job runs here (every guarantee plans to an exact algorithm at
// these sizes), so this workload is the bypass for simulator-only changes.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
)

const (
	hotSpecs = 16   // specs in the shared hot set
	hotShare = 0.35 // share of submissions drawn from the hot set
	longPoll = "30s"
)

// mixClasses are the graph classes, in the job-spec notation.
var mixClasses = []string{"ud", "d", "uw", "dw"}

// mixSpec draws one small instance: n in 32..64, any class, half direct
// exact/agarwal/girthapx jobs and half guarantee jobs. The pick is drawn
// from 12, a multiple of every list length in mixSpecOf, so it is uniform.
func mixSpec(rng *rand.Rand) jobs.Spec {
	return mixSpecOf(rng, mixClasses[rng.Intn(len(mixClasses))], 32+rng.Intn(33), rng.Intn(2) == 0, rng.Intn(12))
}

// hotSpec is the i-th spec of the hot set. Class, size and algorithm
// follow i, so only the wiring varies with the seed and the set-up that
// primes the hot set does comparable work across seeds.
func hotSpec(rng *rand.Rand, i int) jobs.Spec {
	return mixSpecOf(rng, mixClasses[i%len(mixClasses)], 32+2*i, i/len(mixClasses)%2 == 0, i/8)
}

// mixSpecOf builds a random instance of the given class and size, for a
// direct job or a guarantee job; pick selects the algorithm or the
// guarantee among those the class allows.
func mixSpecOf(rng *rand.Rand, class string, n int, direct bool, pick int) jobs.Spec {
	spec := jobs.Spec{
		Graph: jobs.GraphSpec{Class: class, Gen: &jobs.GenSpec{
			Kind: "random", N: n, MaxW: 16, Seed: rng.Int63n(1 << 40),
		}},
		Opts: jobs.OptionsSpec{Seed: 1 + rng.Int63n(1<<20)},
	}
	undirected := class == "ud" || class == "uw"
	if direct {
		algos := []jobs.Algo{jobs.AlgoExact, jobs.AlgoAgarwal}
		if undirected {
			algos = append(algos, jobs.AlgoGirthApx)
		}
		spec.Algo = algos[pick%len(algos)]
	} else {
		guarantees := []string{"exact", "2", "2+eps"}
		if class == "ud" {
			guarantees = append(guarantees, "girth")
		}
		spec.Guarantee = guarantees[pick%len(guarantees)]
	}
	return spec
}

// mixOp is one submission as the client saw it.
type mixOp struct {
	spec     int // index into the run's spec table
	status   jobs.Status
	latency  time.Duration
	done     time.Time     // when the client saw the terminal status
	submit   time.Duration // ServeHTTP time of the POST
	measured bool          // issued inside the measured window
	err      string
}

// mixClient owns one client's spec stream: a shared hot set plus fresh
// specs from its own generator.
type mixClient struct {
	rng   *rand.Rand
	hot   []int
	specs *specTable
}

// specTable interns specs so each distinct one is resolved and checked
// once after the run.
type specTable struct {
	mu     sync.Mutex
	specs  []jobs.Spec
	bodies [][]byte
}

func (t *specTable) add(spec jobs.Spec) (int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.specs = append(t.specs, spec)
	t.bodies = append(t.bodies, body)
	return len(t.specs) - 1, nil
}

func (t *specTable) body(i int) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bodies[i]
}

func (c *mixClient) next() (int, error) {
	if c.rng.Float64() < hotShare {
		return c.hot[c.rng.Intn(len(c.hot))], nil
	}
	return c.specs.add(mixSpec(c.rng))
}

// submit runs one op: POST, then long-poll until terminal.
func submit(s *stack, body []byte) (mixOp, error) {
	var op mixOp
	t0 := time.Now()
	code, resp := serve(s.h, "POST", "/v1/jobs", body)
	op.submit = time.Since(t0)
	if code != 200 && code != 202 {
		return op, fmt.Errorf("POST /v1/jobs: %d %s", code, resp)
	}
	if err := json.Unmarshal(resp, &op.status); err != nil {
		return op, fmt.Errorf("POST /v1/jobs: decode: %w", err)
	}
	for !op.status.State.Terminal() {
		code, resp = serve(s.h, "GET", "/v1/jobs/"+op.status.ID+"?wait="+longPoll, nil)
		if code != 200 {
			return op, fmt.Errorf("GET /v1/jobs/%s: %d %s", op.status.ID, code, resp)
		}
		op.status = jobs.Status{}
		if err := json.Unmarshal(resp, &op.status); err != nil {
			return op, fmt.Errorf("GET /v1/jobs: decode: %w", err)
		}
	}
	op.done = time.Now()
	op.latency = op.done.Sub(t0)
	return op, nil
}

// warmupShare of --seconds runs before the measured window, so the
// service is in its steady state when timing starts.
const warmupShare = 0.1

func runServiceMix(cfg config) (*outcome, error) {
	table := &specTable{}
	hotRng := rand.New(rand.NewSource(subSeed(cfg.seed, "mix-hot", 0)))
	hot := make([]int, hotSpecs)
	for i := range hot {
		var err error
		if hot[i], err = table.add(hotSpec(hotRng, i)); err != nil {
			return nil, err
		}
	}
	// Set-up submits every hot spec once, so the hot set is cached before
	// the run, as in a service that has been up for a while. The priming
	// jobs are checked with the rest.
	var ops []mixOp
	s, setup, err := setupStack(cfg.procs, false, cfg.trace, func(s *stack) error {
		ops = ops[:0]
		for _, idx := range hot {
			op, err := submit(s, table.body(idx))
			if err != nil {
				return fmt.Errorf("prime hot set: %w", err)
			}
			op.spec = idx
			ops = append(ops, op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	warm := time.Duration(float64(cfg.seconds) * warmupShare)
	start := time.Now()
	measureFrom, deadline := start.Add(warm), start.Add(warm+cfg.seconds)
	cpu := cpuDuring(measureFrom, deadline)
	type counters struct {
		jobs   jobs.Metrics
		fsyncs uint64
	}
	before := make(chan counters, 1)
	go func() {
		time.Sleep(time.Until(measureFrom))
		before <- counters{s.svc.Metrics(), s.fsyncs()}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < cfg.procs; c++ {
		cl := &mixClient{rng: rand.New(rand.NewSource(subSeed(cfg.seed, "mix-client", c))), hot: hot, specs: table}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []mixOp
			for time.Now().Before(deadline) {
				idx, err := cl.next()
				if err != nil {
					mine = append(mine, mixOp{err: err.Error()})
					break
				}
				issued := time.Now()
				op, err := submit(s, table.body(idx))
				op.spec = idx
				op.measured = !issued.Before(measureFrom)
				if err != nil {
					op.err = err.Error()
				}
				mine = append(mine, op)
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	after := s.svc.Metrics()
	b := <-before
	m0 := b.jobs

	out := newOutcome()
	loop := closedLoop{from: measureFrom, to: deadline, cpu: <-cpu}
	var completed int
	for _, op := range ops {
		if op.err == "" {
			loop.add(op.done, op.latency)
		}
		if op.measured && op.err == "" {
			completed++
		}
	}
	solved := solveSpecs(table.specs, cfg.procs)
	ratioMax := checkMix(out, table, solved, ops)
	rounds := float64(after.RoundsSimulated - m0.RoundsSimulated)

	if !cfg.trace {
		out.samples = loop.report(out.metrics)
		out.metrics["setup_s"] = setup
		out.metrics["rounds_per_op"] = rounds / float64(completed)
		return out, nil
	}
	m := out.metrics
	var submitMs, queueMs, runMs []float64
	seen := map[string]bool{}
	hits := 0
	for _, op := range ops {
		if op.err != "" || !op.measured {
			continue
		}
		submitMs = append(submitMs, ms(op.submit))
		if op.status.CacheHit {
			hits++
			continue
		}
		st := op.status
		if seen[st.ID] || st.Started == nil || st.Finished == nil {
			continue
		}
		seen[st.ID] = true
		queueMs = append(queueMs, ms(st.Started.Sub(st.Created)))
		runMs = append(runMs, ms(st.Finished.Sub(*st.Started)))
	}
	var resolve, plan, verify []float64
	for i, sv := range solved {
		resolve = append(resolve, ms(sv.resolve))
		verify = append(verify, ms(sv.verify))
		if table.specs[i].Guarantee != "" {
			plan = append(plan, us(sv.plan))
		}
	}
	m["jobs.http_submit_ms"] = median(submitMs)
	m["jobs.resolve_ms"] = median(resolve)
	m["congestmwc.plan_us"] = median(plan)
	m["jobs.queue_wait_ms.p50"] = quantile(queueMs, 0.5)
	m["jobs.queue_wait_ms.p99"] = quantile(queueMs, 0.99)
	m["jobs.run_ms.p50"] = quantile(runMs, 0.5)
	m["jobs.run_ms.p99"] = quantile(runMs, 0.99)
	m["jobs.cache_hit_share"] = share(float64(hits), float64(completed))
	m["jobs.dedup_share"] = share(float64(after.Deduped-m0.Deduped), float64(completed))
	m["jobs.rejected"] = float64(after.Rejected)
	m["check.ratio_max"] = ratioMax
	m["check.verify_ms"] = median(verify)
	s.storeMetrics(m, b.fsyncs, completed)
	loop.wall(m)
	return out, nil
}

// checkMix checks every op against the sequential reference of its
// instance. It returns the achieved ratio's maximum.
func checkMix(out *outcome, table *specTable, solved []solvedSpec, ops []mixOp) float64 {
	ratioMax := 0.0
	for _, op := range ops {
		out.attempted++
		if op.err != "" {
			out.fail("%s", op.err)
			continue
		}
		sv, spec, st := solved[op.spec], table.specs[op.spec], op.status
		switch {
		case sv.err != nil:
			out.fail("job %s: %v", st.ID, sv.err)
		case st.State != jobs.StateDone || st.Result == nil:
			out.fail("job %s ended %s: %s", st.ID, st.State, st.Error)
		default:
			res := &congestmwc.Result{Weight: st.Result.Weight, Found: st.Result.Found, Cycle: st.Result.Cycle}
			ratio, msg := checkAnswer(sv.g, string(st.Algo), spec.Opts.Eps, res, sv.ref)
			if msg != "" {
				out.fail("job %s: %s", st.ID, msg)
				break
			}
			if q := spec.Guarantee; q != "" && ratio > congestmwc.Guarantee(q).Ratio(spec.Opts.Eps)+1e-9 {
				out.fail("job %s: ratio %.3f breaks guarantee %s", st.ID, ratio, q)
				break
			}
			ratioMax = max(ratioMax, ratio)
		}
	}
	return ratioMax
}

// solvedSpec is one distinct spec resolved and solved by the reference,
// with the time each step took.
type solvedSpec struct {
	g                     *congestmwc.Graph
	ref                   int64
	err                   error
	resolve, plan, verify time.Duration
}

// solveSpecs resolves and solves every spec of the run, spread over procs
// goroutines: the check runs after the measured window, and this keeps a
// run within its time budget. It also times Spec.Resolve and, for
// guarantee specs, the planner.
func solveSpecs(specs []jobs.Spec, procs int) []solvedSpec {
	out := make([]solvedSpec, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				out[i] = solveSpec(specs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

func solveSpec(spec jobs.Spec) solvedSpec {
	var sv solvedSpec
	t0 := time.Now()
	g, opts, err := spec.Resolve(0)
	sv.resolve = time.Since(t0)
	if err == nil && spec.Guarantee != "" {
		t1 := time.Now()
		_, err = congestmwc.Plan(g, congestmwc.Guarantee(spec.Guarantee), opts)
		sv.plan = time.Since(t1)
	}
	sv.g, sv.err = g, err
	if err == nil {
		t2 := time.Now()
		sv.ref, sv.err = congestmwc.ReferenceMWC(g)
		sv.verify = time.Since(t2)
	}
	return sv
}
