package congest

import "math"

// never is the round number reported by schedule queries when nothing is
// pending — later than any reachable round.
const never = math.MaxInt

// qmsg is one queued message in a link's FIFO: its tag plus the position of
// its payload in the link's words arena. Storing (offset, length) instead of
// a slice keeps the queue pointer-free — the garbage collector never scans
// link queues, and a drained link retains nothing.
type qmsg struct {
	tag int64
	off int32 // payload start in link.words
	n   int32 // payload length in words
}

// size returns the message size in words (tag + payload).
func (q qmsg) size() int { return 1 + int(q.n) }

// link is one directed FIFO channel of the communication graph. queue[head:]
// holds the undelivered messages; their payloads live contiguously in
// words[queue[head].off:]. credit is the bandwidth accumulated toward the
// head message's size (fragmentation: a size-s message completes once credit
// reaches s, i.e. after ceil(s/B) rounds on an otherwise idle link).
//
// Both queue and words are per-link arenas: they grow to the link's
// high-water backlog once and are then reused round after round, so a
// steady-state round enqueues and delivers without touching the heap.
// Delivery copies payloads out into the receiver's inbox arena, so the
// link's own arena has exactly one referent (the link) and can be reset or
// compacted whenever its delivered prefix allows.
type link struct {
	owner, to int32
	queue     []qmsg
	words     []int64
	head      int  // index of the first undelivered message in queue
	credit    int  // words of bandwidth accrued toward queue[head]
	enqueued  bool // tracked in transport.queued or a node's touched list
	cut       bool // crosses the metered cut
}

// reset returns a fully-drained link to its idle state, keeping the backing
// arrays of both arenas for reuse. Nothing needs clearing: neither arena
// holds pointers.
func (l *link) reset() {
	l.queue = l.queue[:0]
	l.words = l.words[:0]
	l.head = 0
	l.credit = 0
	l.enqueued = false
}

// maybeCompact shifts queue[head:] (and the corresponding payload suffix of
// the words arena) to the front once the delivered prefix dominates, so a
// long-lived queue doesn't grow its backing arrays without bound. Payloads
// of undelivered messages are contiguous at words[queue[head].off:] because
// enqueue and delivery are both FIFO.
func (l *link) maybeCompact() {
	if l.head <= 32 || 2*l.head < len(l.queue) {
		return
	}
	base := l.queue[l.head].off
	nw := copy(l.words, l.words[base:])
	l.words = l.words[:nw]
	nq := copy(l.queue, l.queue[l.head:])
	l.queue = l.queue[:nq]
	for i := range l.queue {
		l.queue[i].off -= base
	}
	l.head = 0
}

// transport owns the flat arena of directed links, indexed by link ID. IDs
// are assigned in ascending (owner, to) order — node v's links form the
// contiguous range [Network.linkOff[v], Network.linkOff[v+1]), parallel to
// its sorted neighbor list — so the pending set (queued) is a sorted []int32
// of link IDs and "canonical delivery order" is simply ascending ID order.
// nextDelivery is the earliest round at which any queued link can complete a
// message, computed from per-link credit and head-of-queue size; the
// scheduler uses it (together with the wake-up calendar) to jump over empty
// rounds.
type transport struct {
	bandwidth    int
	links        []link  // all directed links, ID == canonical (owner, to) rank
	queued       []int32 // IDs of links with pending traffic, sorted ascending
	nextDelivery int     // earliest completable delivery round; never if idle
	fresh        []int32 // scratch: this round's newly-touched link IDs

	// Per-round congestion figures, reset by transmit and reported in the
	// round's KindRoundEnd event.
	maxLink  int // most words delivered over one link this round
	maxQueue int // longest link backlog left after transmit
}

func newTransport(bandwidth int) transport {
	return transport{bandwidth: bandwidth, nextDelivery: never}
}

// pending reports whether any link has undelivered traffic.
func (tr *transport) pending() bool { return len(tr.queued) > 0 }

// transmit advances every queued link by elapsed rounds of bandwidth and
// places completed messages in destination inboxes, appending each receiving
// node to buf (with duplicates). elapsed > 1 settles a skipped gap: because
// nextDelivery is a min over the queued links, no link could have completed
// a message during the gap, so crediting B*elapsed in one step is identical
// to per-round accrual. Recomputes nextDelivery for the links that remain.
//
// Delivered payloads are copied into the receiving node's inWords arena and
// handed to its inbox as views of that arena. Copying at delivery is what
// makes the lifetime contract safe: the sending link's own arena may be reset
// and rewritten by the owner's handler in this very round (possibly on
// another worker goroutine), while the receiver's arena only grows until the
// receiver itself clears its inbox.
func (tr *transport) transmit(net *Network, elapsed int, buf []int) []int {
	tr.maxLink, tr.maxQueue = 0, 0
	if len(tr.queued) == 0 {
		tr.nextDelivery = never
		return buf
	}
	b := tr.bandwidth
	next := never
	remaining := tr.queued[:0]
	for _, id := range tr.queued {
		l := &tr.links[id]
		l.maybeCompact()
		l.credit += b * elapsed
		delivered := false
		linkWords := 0
		for l.head < len(l.queue) && l.queue[l.head].size() <= l.credit {
			q := l.queue[l.head]
			l.head++
			size := q.size()
			l.credit -= size
			dst := net.nodes[l.to]
			woff := len(dst.inWords)
			dst.inWords = append(dst.inWords, l.words[q.off:q.off+q.n]...)
			m := Msg{Tag: q.tag, Words: dst.inWords[woff:len(dst.inWords):len(dst.inWords)]}
			dst.inbox = append(dst.inbox, Delivery{From: int(l.owner), Msg: m})
			if net.want.Has(KindMessage) {
				net.observeMessage(l, m)
			}
			net.stats.Messages++
			net.stats.Words += size
			linkWords += size
			if l.cut {
				net.stats.CutWords += size
			}
			delivered = true
		}
		if linkWords > tr.maxLink {
			tr.maxLink = linkWords
		}
		if delivered {
			buf = append(buf, int(l.to))
		}
		if l.head == len(l.queue) {
			l.reset()
			continue
		}
		if qlen := len(l.queue) - l.head; qlen > tr.maxQueue {
			tr.maxQueue = qlen
		}
		need := l.queue[l.head].size() - l.credit
		if r := net.now + (need+b-1)/b; r < next {
			next = r
		}
		remaining = append(remaining, id)
	}
	tr.queued = remaining
	tr.nextDelivery = next
	return buf
}

// enqueue merges this round's newly-touched link IDs (ascending, disjoint
// from queued since their enqueued flag was just set) into the sorted queued
// set — a backward in-place merge, O(new + queued) instead of re-sorting —
// and pulls nextDelivery forward for each new head-of-queue.
func (tr *transport) enqueue(now int, fresh []int32) {
	if len(fresh) == 0 {
		return
	}
	b := tr.bandwidth
	for _, id := range fresh {
		l := &tr.links[id]
		need := l.queue[l.head].size() - l.credit
		if r := now + (need+b-1)/b; r < tr.nextDelivery {
			tr.nextDelivery = r
		}
	}
	q := append(tr.queued, fresh...)
	// Backward merge, reading the new elements from fresh (a separate
	// backing array) so overwriting q's tail is safe.
	i, j := len(tr.queued)-1, len(fresh)-1
	for k := len(q) - 1; j >= 0; k-- {
		if i >= 0 && tr.queued[i] > fresh[j] {
			q[k] = tr.queued[i]
			i--
		} else {
			q[k] = fresh[j]
			j--
		}
	}
	tr.queued = q
}
