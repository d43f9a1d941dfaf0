package congest

import "fmt"

// engine is the handler-execution strategy: how one round's Deliver/Tick
// (or Init) handlers are invoked across the active nodes. Implementations
// must preserve the invariant that handlers mutate only node-local state
// (their own nodeState and their own outgoing links), and must drain each
// node's per-round scratch (wake-up requests, touched links) into a
// per-worker roundScratch as they go — sharded collection, merged by
// afterHandlers at the round barrier. Everything else about a round —
// transmission, wake-up merging, observer events — is engine-independent
// and lives in the run loop below, which is why both engines produce
// bit-identical event streams.
type engine interface {
	runHandlers(net *Network, ids []int, init bool)
}

// wakeReq is one drained wake-up request: node wants a Tick at round.
type wakeReq struct {
	round, node int
}

// roundScratch is one worker's outbox for a round: the link IDs its nodes
// first wrote to (in ascending ID order — each node's batch is sorted and
// node IDs ascend within a worker's chunk) and their wake-up requests.
// Workers own disjoint scratches, so handler execution collects this state
// without any lock; afterHandlers concatenates the scratches in worker
// order, which preserves the global canonical order because worker chunks
// partition the ascending active list.
type roundScratch struct {
	touched []int32
	wakes   []wakeReq
}

// handleNode invokes one node's handler(s) for the current round and drains
// the node's scratch into sc. Called from both engines; touches only the
// node's own state and the caller's scratch.
func (net *Network) handleNode(v int, init bool, sc *roundScratch) {
	st := net.nodes[v]
	nd := &st.node
	if init {
		st.program.Init(nd)
	} else {
		for _, d := range st.inbox {
			st.program.Deliver(nd, d)
		}
		st.program.Tick(nd)
		st.inbox = st.inbox[:0]
		st.inWords = st.inWords[:0]
	}
	if len(st.wakes) > 0 {
		for _, r := range st.wakes {
			sc.wakes = append(sc.wakes, wakeReq{round: r, node: v})
		}
		st.wakes = st.wakes[:0]
	}
	if len(st.touched) > 0 {
		insertionSortInt32(st.touched)
		sc.touched = append(sc.touched, st.touched...)
		st.touched = st.touched[:0]
	}
}

// Run executes one Program per node until quiescence: no queued link
// traffic and no pending wake-ups. budget caps the number of additional
// rounds; budget <= 0 selects a generous default. Returns the number of
// rounds this run consumed.
//
// The loop is event-driven: each iteration asks the scheduler for the next
// round in which anything can happen — the minimum of the transport's
// next-delivery round and the calendar's next wake-up — and jumps the clock
// straight there, charging the skipped gap to Stats.Rounds in one step.
// Options.Stepwise pins the next round to now+1, iterating every round
// one by one; both modes are bit-identical in results, Stats and round
// counts (see sched_test.go).
func (net *Network) Run(progs []Program, budget int) (int, error) {
	n := net.g.N()
	if len(progs) != n {
		return 0, fmt.Errorf("congest: %d programs for %d nodes", len(progs), n)
	}
	if budget <= 0 {
		budget = 1000*n + 1_000_000
	}
	start := net.now
	net.emit(KindRunStart)
	for v, st := range net.nodes {
		st.program = progs[v]
		st.inbox = st.inbox[:0]
		st.inWords = st.inWords[:0]
	}
	if net.canceled() {
		net.emit(KindRunEnd)
		return 0, net.cancelErr(start)
	}
	// Init phase: local computation before round 1 of this run; sends made
	// here enter the link queues and are delivered from the next round on.
	net.eng.runHandlers(net, net.all, true)
	net.afterHandlers()
	// A cancellation landing during the Init phase makes the engine bail
	// mid-batch; if the partially executed init left no pending traffic or
	// wake-ups, the loop below never runs, so report the cancellation here
	// rather than returning nil over a partially initialized network.
	if net.canceled() {
		net.emit(KindRunEnd)
		return net.now - start, net.cancelErr(start)
	}

	for net.tr.pending() || !net.cal.empty() {
		// Abort check at the round boundary: a cancellation that lands while
		// a round executes is observed here before the next round starts, so
		// a run stops within one executed round of its context being done.
		// Stats charge only executed rounds — the gap the scheduler would
		// have skipped to reach the next event is never added.
		if net.canceled() {
			net.emit(KindRunEnd)
			return net.now - start, net.cancelErr(start)
		}
		next := net.cal.next()
		if net.tr.pending() && net.tr.nextDelivery < next {
			next = net.tr.nextDelivery
		}
		if net.opts.Stepwise || next <= net.now {
			// Stepwise debug mode; or a stale past wake-up left behind by a
			// budget-exhausted run — degrade to one-round steps as the
			// stepwise loop would.
			next = net.now + 1
		}
		if next-start > budget {
			if net.now-start < budget {
				// Consume the remaining budget as one empty round so the
				// rounds charged equal the budget exactly, as stepwise
				// iteration would have.
				net.runRound(start + budget)
			}
			net.emit(KindRunEnd)
			return net.now - start, fmt.Errorf("%w (%d rounds)", ErrBudget, budget)
		}
		net.runRound(next)
	}
	for _, st := range net.nodes {
		st.program = nil
	}
	net.emit(KindRunEnd)
	return net.now - start, nil
}

// cancelErr builds the error for a canceled run, wrapping both ErrCanceled
// and the context's own cause so callers can distinguish explicit
// cancellation from a deadline.
func (net *Network) cancelErr(start int) error {
	return fmt.Errorf("%w after %d rounds: %w", ErrCanceled, net.now-start, net.ctx.Err())
}

// runRound executes the single round `round`, first settling the gap of
// skipped empty rounds since the previous executed one: the gap is charged
// to Stats.Rounds, queued links accrue its bandwidth, and observers see it
// as RoundStats.Gap.
func (net *Network) runRound(round int) {
	gap := round - net.now - 1
	net.now = round
	net.stats.Rounds += gap + 1
	net.emit(KindRoundStart)
	before := net.stats
	buf := net.tr.transmit(net, gap+1, net.activeBuf[:0])
	if wk := net.cal.take(round); wk != nil {
		buf = append(buf, wk...)
		net.cal.recycle(wk)
	}
	// Dedup receivers/woken nodes with a per-node epoch stamp before sorting:
	// buf holds one entry per delivering link plus the wake bucket, so nodes
	// repeat up to their in-degree and sorting the raw list wastes most of
	// its compares on duplicates.
	net.epochN++
	active := buf[:0] // in-place: the write index never passes the read index
	for _, v := range buf {
		if net.epoch[v] != net.epochN {
			net.epoch[v] = net.epochN
			active = append(active, v)
		}
	}
	sortInts(active)
	net.activeBuf = buf
	net.eng.runHandlers(net, active, false)
	net.afterHandlers()
	net.stats.Activations += len(active)
	if net.want.Has(KindRoundEnd) {
		net.ev = Event{Kind: KindRoundEnd, Round: round, Stats: RoundStats{
			Messages:     net.stats.Messages - before.Messages,
			Words:        net.stats.Words - before.Words,
			CutWords:     net.stats.CutWords - before.CutWords,
			Active:       len(active),
			MaxLinkWords: net.tr.maxLink,
			MaxQueueLen:  net.tr.maxQueue,
			Gap:          gap,
		}}
		net.obs.Observe(&net.ev)
	}
}

// afterHandlers merges the per-worker scratches filled during handler
// execution: wake-up requests go to the calendar, touched link IDs to the
// transport's sorted pending set. Worker chunks partition the ascending
// active list and each worker's touched list is already sorted, so
// concatenating scratches in worker order yields the canonical ascending
// link-ID order and the transport merge stays O(new + queued).
func (net *Network) afterHandlers() {
	fresh := net.tr.fresh[:0]
	for w := range net.scratch {
		sc := &net.scratch[w]
		if len(sc.touched) > 0 {
			fresh = append(fresh, sc.touched...)
			sc.touched = sc.touched[:0]
		}
		if len(sc.wakes) > 0 {
			for _, wr := range sc.wakes {
				net.cal.schedule(wr.round, wr.node)
			}
			sc.wakes = sc.wakes[:0]
		}
	}
	net.tr.enqueue(net.now, fresh)
	net.tr.fresh = fresh[:0]
}

// insertionSortInt32 sorts a node's touched link IDs. The lists are tiny
// (bounded by the node's degree, typically a handful), where insertion sort
// beats a generic sort without allocating.
func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}
