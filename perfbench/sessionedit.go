package main

// session-edit: a closed loop of one client per CPU, each owning a few
// dynamic graph sessions opened on POST /v1/graphs from planted-witness
// specs (a light triangle inside a heavy ring, plus chords). Each client
// sends PATCH batches drawn from mwcreplay's session trace model (on
// weighted sessions 60% answer-preserving under the witness rules, the
// rest reweighting the witness triangle; on unweighted sessions unit-chord
// inserts and deletes), then reads GET /v1/graphs/{id}/mwc?wait= until the
// answer is clean at the new version. Witness-kept edits skip the
// simulator; invalidating ones go through the job queue and a simulation,
// and every edit rewrites the session record in the store. A change to
// invalidation or to session persistence shows here and not in
// service-mix.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"congestmwc"
	"congestmwc/internal/jobs"
	"congestmwc/internal/session"
)

const (
	sessionsPerClient = 8
	// offWitnessShare is the share of batches on weighted sessions built to
	// be answer-preserving: mwcreplay's default -offwitness, which like it
	// applies to weighted classes only.
	offWitnessShare = 0.6
	triW            = 16 // triangle edges are reweighted within 1..triW
	// heavyW is above any answer (the triangle weighs at most 3*triW):
	// ring and base chords weigh 16..heavyW, and chords inserted on
	// weighted sessions weigh heavyW.
	heavyW    = 64
	maxChords = 4 // chords a session's batches may have live at once
)

// answer is a session's clean result as the client read it.
type answer struct {
	found  bool
	weight int64
	cycle  []int
}

// mirror is the client's copy of one session's edge set, with the same key
// normalisation the session uses, and the last clean answer.
type mirror struct {
	id       string
	n        int
	directed bool
	weighted bool
	edges    map[[2]int]int64
	ans      answer
	spec     jobs.Spec
	base     map[[2]int]int64
	chords   [][2]int         // live chords inserted by batches
	raised   map[[2]int]int64 // base weights of base edges raised by batches
	log      []editOp         // this session's edits, in order
}

func (m *mirror) key(u, v int) [2]int {
	if !m.directed && u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (m *mirror) sortedKeys() [][2]int {
	keys := make([][2]int, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// triangle returns the planted witness triangle's edges.
func (m *mirror) triangle() [3][2]int {
	return [3][2]int{m.key(0, 1), m.key(1, 2), m.key(2, 0)}
}

func (m *mirror) onTriangle(k [2]int) bool {
	t := m.triangle()
	return k == t[0] || k == t[1] || k == t[2]
}

func (m *mirror) onWitness(u, v int) bool {
	c := m.ans.cycle
	for i := range c {
		a, b := c[i], c[(i+1)%len(c)]
		if (a == u && b == v) || (!m.directed && a == v && b == u) {
			return true
		}
	}
	return false
}

// keeps predicts, from the documented witness rules, whether op preserves
// the answer the session holds before the batch.
func (m *mirror) keeps(op session.Op, old int64) bool {
	a := m.ans
	switch op.Op {
	case session.OpInsert:
		return a.found && m.weight(op.Weight) >= a.weight
	case session.OpDelete:
		return !a.found || (len(a.cycle) > 0 && !m.onWitness(op.From, op.To))
	default:
		w := m.weight(op.Weight)
		return !a.found || w == old || (w >= old && len(a.cycle) > 0 && !m.onWitness(op.From, op.To))
	}
}

func (m *mirror) weight(w int64) int64 {
	if !m.weighted {
		return 1
	}
	return w
}

func (m *mirror) apply(op session.Op) {
	k := m.key(op.From, op.To)
	if op.Op == session.OpDelete {
		delete(m.edges, k)
		return
	}
	m.edges[k] = m.weight(op.Weight)
}

// newMirror plants one session's base graph on n vertices: a triangle
// 0-1-2 of weight 1, a ring 2..n-1 back to 0 of heavy edges, and n/2
// random chords.
func newMirror(rng *rand.Rand, class string, n int, algo jobs.Algo) *mirror {
	m := &mirror{
		n:        n,
		directed: class == "d" || class == "dw",
		weighted: class == "uw" || class == "dw",
		edges:    map[[2]int]int64{},
		raised:   map[[2]int]int64{},
	}
	heavy := func() int64 { return m.weight(16 + rng.Int63n(heavyW-15)) }
	m.edges[m.key(0, 1)], m.edges[m.key(1, 2)], m.edges[m.key(2, 0)] = 1, 1, 1
	for u := 2; u < m.n-1; u++ {
		m.edges[m.key(u, u+1)] = heavy()
	}
	m.edges[m.key(m.n-1, 0)] = heavy()
	for added := 0; added < m.n/2; {
		u, v := rng.Intn(m.n), rng.Intn(m.n)
		if _, ok := m.edges[m.key(u, v)]; u == v || ok {
			continue
		}
		m.edges[m.key(u, v)] = heavy()
		added++
	}
	m.base = make(map[[2]int]int64, len(m.edges))
	edges := make([]jobs.Edge, 0, len(m.edges))
	for _, k := range m.sortedKeys() {
		m.base[k] = m.edges[k]
		edges = append(edges, jobs.Edge{From: k[0], To: k[1], Weight: m.edges[k]})
	}
	m.spec = jobs.Spec{Graph: jobs.GraphSpec{Class: class, N: m.n, Edges: edges}, Algo: algo}
	return m
}

// pickEdge returns a random existing edge accepted by ok.
func (m *mirror) pickEdge(rng *rand.Rand, ok func([2]int) bool) ([2]int, bool) {
	keys := m.sortedKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if ok(k) {
			return k, true
		}
	}
	return [2]int{}, false
}

// pickNonEdge returns a random vertex pair that is not an edge.
func (m *mirror) pickNonEdge(rng *rand.Rand) ([2]int, bool) {
	for try := 0; try < 64; try++ {
		u, v := rng.Intn(m.n), rng.Intn(m.n)
		if _, ok := m.edges[m.key(u, v)]; u != v && !ok {
			return m.key(u, v), true
		}
	}
	return [2]int{}, false
}

// nextBatch builds one PATCH batch the way mwcreplay generates its
// session traces, applies it to the mirror, and returns it with the
// witness-kept flag the documented rules predict for it.
//
// On weighted sessions, offWitnessShare of the batches are built to be
// answer-preserving (delete an inserted chord, insert a chord of weight
// heavyW, or raise a base edge off the witness), and the rest reweight a
// triangle edge. Unweighted sessions insert or delete a unit chord with
// equal odds. Unlike mwcreplay's open-ended streams, every batch keeps the
// session in one steady state however many edits a run completes: base
// edges are never deleted, deletes take back a chord an earlier batch
// inserted, at most maxChords such chords are live, and each invalidating
// batch also puts one raised base edge back to its base weight. So how
// heavy a recompute is does not depend on how fast the program is.
func (m *mirror) nextBatch(rng *rand.Rand) ([]session.Op, bool) {
	var ops []session.Op
	kept := true
	add := func(op session.Op) {
		old := m.edges[m.key(op.From, op.To)]
		kept = kept && m.keeps(op, old)
		m.apply(op)
		ops = append(ops, op)
	}
	insertChord := func(w int64) bool {
		k, ok := m.pickNonEdge(rng)
		if ok {
			m.chords = append(m.chords, k)
			add(session.Op{Op: session.OpInsert, From: k[0], To: k[1], Weight: w})
		}
		return ok
	}
	deleteChord := func() {
		i := rng.Intn(len(m.chords))
		k := m.chords[i]
		m.chords = append(m.chords[:i], m.chords[i+1:]...)
		add(session.Op{Op: session.OpDelete, From: k[0], To: k[1]})
	}
	if !m.weighted {
		if len(m.chords) == maxChords || len(m.chords) > 0 && rng.Intn(2) == 0 || !insertChord(1) {
			deleteChord()
		}
		return ops, kept
	}
	if rng.Float64() < offWitnessShare {
		// mwcreplay's answer-preserving mix: 20% delete a chord, 30%
		// insert one, the rest raise an edge off the witness.
		pick := rng.Intn(10)
		if pick < 2 && len(m.chords) > 0 {
			deleteChord()
			return ops, kept
		}
		if pick < 5 && len(m.chords) < maxChords && insertChord(heavyW) {
			return ops, kept
		}
		k, ok := m.pickEdge(rng, func(k [2]int) bool {
			_, isBase := m.base[k]
			return isBase && !m.onTriangle(k) && !m.onWitness(k[0], k[1])
		})
		if ok {
			if _, raised := m.raised[k]; !raised {
				m.raised[k] = m.edges[k]
			}
			add(session.Op{Op: session.OpReweight, From: k[0], To: k[1], Weight: m.edges[k] + 1 + rng.Int63n(8)})
		}
		return ops, kept
	}
	k := m.triangle()[rng.Intn(3)]
	w := 1 + rng.Int63n(triW)
	if w == m.edges[k] {
		w = w%triW + 1
	}
	add(session.Op{Op: session.OpReweight, From: k[0], To: k[1], Weight: w})
	if len(m.raised) > 0 {
		keys := make([][2]int, 0, len(m.raised))
		for k := range m.raised {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
		})
		k := keys[rng.Intn(len(keys))]
		add(session.Op{Op: session.OpReweight, From: k[0], To: k[1], Weight: m.raised[k]})
		delete(m.raised, k)
	}
	return ops, kept
}

// editOp is one PATCH batch and the clean answer the client read after it.
type editOp struct {
	ops       []session.Op
	kept      bool // the session reported the batch witness-kept
	ans       answer
	latency   time.Duration // PATCH sent to clean answer at the new version
	done      time.Time     // when the client read the clean answer
	patch     time.Duration // ServeHTTP time of the PATCH
	recompute time.Duration // PATCH answered to clean answer (invalidating batches)
	measured  bool
	err       string
}

// readClean long-polls the session's answer until it is clean at version
// or later.
func readClean(s *stack, id string, version uint64) (answer, error) {
	for {
		code, resp := serve(s.h, "GET", "/v1/graphs/"+id+"/mwc?wait="+longPoll, nil)
		if code != 200 && code != 202 {
			return answer{}, fmt.Errorf("GET /v1/graphs/%s/mwc: %d %s", id, code, resp)
		}
		var st session.Status
		if err := json.Unmarshal(resp, &st); err != nil {
			return answer{}, fmt.Errorf("GET /v1/graphs/%s/mwc: decode: %w", id, err)
		}
		switch {
		case st.State == session.StateFailed:
			return answer{}, fmt.Errorf("session %s failed: %s", id, st.Error)
		case st.State == session.StateClean && st.Result != nil && st.ResultVersion >= version:
			return answer{found: st.Result.Found, weight: st.Result.Weight, cycle: st.Result.Cycle}, nil
		}
	}
}

// openSessions creates every client's sessions on the stack and waits for
// their first clean answers.
func openSessions(s *stack, seed int64, procs int) ([][]*mirror, error) {
	clients := make([][]*mirror, procs)
	for c := range clients {
		rng := rand.New(rand.NewSource(subSeed(seed, "session-graph", c)))
		for k := 0; k < sessionsPerClient; k++ {
			i := c*sessionsPerClient + k
			// Class, size and algorithm follow the session index, so only
			// the wiring varies with the seed and the simulated work per
			// edit stays comparable across seeds.
			algo := jobs.AlgoExact
			if i/len(mixClasses)%2 == 1 {
				algo = jobs.AlgoAgarwal
			}
			m := newMirror(rng, mixClasses[i%len(mixClasses)], 32+4*(i/len(mixClasses)%4), algo)
			body, err := json.Marshal(m.spec)
			if err != nil {
				return nil, err
			}
			code, resp := serve(s.h, "POST", "/v1/graphs", body)
			if code != 201 {
				return nil, fmt.Errorf("POST /v1/graphs: %d %s", code, resp)
			}
			var st session.Status
			if err := json.Unmarshal(resp, &st); err != nil {
				return nil, fmt.Errorf("POST /v1/graphs: decode: %w", err)
			}
			m.id = st.ID
			if m.ans, err = readClean(s, st.ID, st.Version); err != nil {
				return nil, err
			}
			clients[c] = append(clients[c], m)
		}
	}
	return clients, nil
}

// edit runs one op on a session: PATCH, then read until clean.
func edit(s *stack, m *mirror, rng *rand.Rand) editOp {
	ops, predicted := m.nextBatch(rng)
	op := editOp{ops: ops}
	body, err := json.Marshal(session.PatchRequest{Ops: ops})
	if err != nil {
		op.err = err.Error()
		return op
	}
	t0 := time.Now()
	code, resp := serve(s.h, "PATCH", "/v1/graphs/"+m.id, body)
	op.patch = time.Since(t0)
	if code != 200 {
		op.err = fmt.Sprintf("PATCH /v1/graphs/%s: %d %s", m.id, code, resp)
		return op
	}
	var pr session.PatchResult
	if err := json.Unmarshal(resp, &pr); err != nil {
		op.err = fmt.Sprintf("PATCH decode: %v", err)
		return op
	}
	op.kept = pr.WitnessKept
	if op.ans, err = readClean(s, m.id, pr.Status.Version); err != nil {
		op.err = err.Error()
		return op
	}
	op.done = time.Now()
	op.latency = op.done.Sub(t0)
	op.recompute = op.latency - op.patch
	if pr.WitnessKept != predicted {
		op.err = fmt.Sprintf("session %s: witnessKept=%v, the witness rules predict %v for %+v", m.id, pr.WitnessKept, predicted, ops)
	}
	m.ans = op.ans
	return op
}

func runSessionEdit(cfg config) (*outcome, error) {
	var clients [][]*mirror
	s, setup, err := setupStack(cfg.procs, true, cfg.trace, func(s *stack) error {
		var err error
		clients, err = openSessions(s, cfg.seed, cfg.procs)
		return err
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
		sess   session.Metrics
		jobs   jobs.Metrics
		fsyncs uint64
	}
	before := make(chan counters, 1)
	go func() {
		time.Sleep(time.Until(measureFrom))
		before <- counters{s.mgr.Metrics(), s.svc.Metrics(), s.fsyncs()}
	}()
	var wg sync.WaitGroup
	for c, sessions := range clients {
		rng := rand.New(rand.NewSource(subSeed(cfg.seed, "session-client", c)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				m := sessions[i%len(sessions)]
				issued := time.Now()
				op := edit(s, m, rng)
				op.measured = !issued.Before(measureFrom)
				m.log = append(m.log, op)
				if op.err != "" {
					break // the session and its mirror may have diverged
				}
			}
		}()
	}
	wg.Wait()
	b := <-before
	sessAfter, jobsAfter := s.mgr.Metrics(), s.svc.Metrics()

	out := newOutcome()
	loop := closedLoop{from: measureFrom, to: deadline, cpu: <-cpu}
	var patch, recompute []float64
	completed := 0
	for _, sessions := range clients {
		for _, m := range sessions {
			for _, op := range m.log {
				if op.err == "" {
					loop.add(op.done, op.latency)
				}
				if !op.measured || op.err != "" {
					continue
				}
				completed++
				patch = append(patch, ms(op.patch))
				if !op.kept {
					recompute = append(recompute, ms(op.recompute))
				}
			}
		}
	}
	verify, ratioMax := checkSessions(out, clients, cfg.procs)
	if !cfg.trace {
		out.samples = loop.report(out.metrics)
		out.metrics["setup_s"] = setup
		out.metrics["rounds_per_op"] = float64(jobsAfter.RoundsSimulated-b.jobs.RoundsSimulated) / float64(completed)
		return out, nil
	}
	m := out.metrics
	m["session.patch_ms.p50"] = quantile(patch, 0.5)
	m["session.patch_ms.p99"] = quantile(patch, 0.99)
	m["session.recompute_ms.p50"] = median(recompute)
	m["session.witness_kept_share"] = share(float64(sessAfter.WitnessKept-b.sess.WitnessKept), float64(sessAfter.Patches-b.sess.Patches))
	m["session.query_cached_share"] = share(float64(sessAfter.CachedAnswers-b.sess.CachedAnswers), float64(sessAfter.Queries-b.sess.Queries))
	m["check.ratio_max"] = ratioMax
	m["check.verify_ms"] = median(verify)
	s.storeMetrics(m, b.fsyncs, completed)
	loop.wall(m)
	return out, nil
}

// checkSessions replays every session's edits on its base graph and checks
// each answer against a from-scratch build and reference solve of the
// edited graph. Sessions run exact algorithms, and witness-kept answers
// stay exact, so the weight must match the reference exactly. Sessions are
// checked concurrently, one checker per CPU, to keep the run within its
// time budget; the check runs after the measured window.
func checkSessions(out *outcome, clients [][]*mirror, procs int) (verify []float64, ratioMax float64) {
	var all []*mirror
	for _, sessions := range clients {
		all = append(all, sessions...)
	}
	fails := make([][]string, len(all))
	times := make([][]float64, len(all))
	ratios := make([]float64, len(all))
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i, m := range all {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			fails[i], times[i], ratios[i] = checkSession(m)
			<-sem
		}()
	}
	wg.Wait()
	for i, m := range all {
		out.attempted += len(m.log)
		for _, f := range fails[i] {
			out.fail("%s", f)
		}
		verify = append(verify, times[i]...)
		ratioMax = max(ratioMax, ratios[i])
	}
	return verify, ratioMax
}

// checkSession checks one session's edits in order and returns a message
// per failed edit, the check time of each edit and the largest ratio of an
// answer to the reference.
func checkSession(m *mirror) (fails []string, verify []float64, ratioMax float64) {
	replay := &mirror{n: m.n, directed: m.directed, weighted: m.weighted, edges: map[[2]int]int64{}}
	for k, w := range m.base {
		replay.edges[k] = w
	}
	for i, op := range m.log {
		if op.err != "" {
			fails = append(fails, op.err)
			continue
		}
		t0 := time.Now()
		for _, o := range op.ops {
			replay.apply(o)
		}
		ratio, msg := checkSessionAnswer(replay, op.ans)
		if msg != "" {
			fails = append(fails, fmt.Sprintf("session %s edit %d: %s", m.id, i, msg))
		}
		ratioMax = max(ratioMax, ratio)
		verify = append(verify, ms(time.Since(t0)))
	}
	return fails, verify, ratioMax
}

// checkSessionAnswer returns the answer's ratio to the reference (1 when
// the graph has no cycle and none was reported), or a failure message.
func checkSessionAnswer(m *mirror, a answer) (float64, string) {
	keys := m.sortedKeys()
	edges := make([]congestmwc.Edge, len(keys))
	for i, k := range keys {
		edges[i] = congestmwc.Edge{From: k[0], To: k[1], Weight: m.edges[k]}
	}
	class := congestmwc.Undirected
	switch {
	case m.directed && m.weighted:
		class = congestmwc.DirectedWeighted
	case m.directed:
		class = congestmwc.Directed
	case m.weighted:
		class = congestmwc.UndirectedWeighted
	}
	g, err := congestmwc.NewGraph(m.n, edges, class)
	if err != nil {
		return 0, fmt.Sprintf("edited graph does not build: %v", err)
	}
	ref, err := congestmwc.ReferenceMWC(g)
	if found := err == nil; found != a.found {
		return 0, fmt.Sprintf("found=%v, reference found=%v", a.found, found)
	}
	if !a.found {
		return 1, ""
	}
	ratio := float64(a.weight) / float64(ref)
	if a.weight != ref {
		return ratio, fmt.Sprintf("weight %d, reference %d", a.weight, ref)
	}
	if len(a.cycle) > 0 {
		w, err := g.VerifyCycle(a.cycle)
		if err != nil {
			return ratio, fmt.Sprintf("witness does not verify: %v", err)
		}
		if w != a.weight {
			return ratio, fmt.Sprintf("witness weighs %d, answer %d", w, a.weight)
		}
	}
	return ratio, ""
}
