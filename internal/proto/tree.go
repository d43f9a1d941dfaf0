// Package proto implements the reusable distributed protocol substrates the
// paper's algorithms are built from, each as CONGEST node programs on the
// simulator in internal/congest:
//
//   - BFS spanning-tree construction over the communication graph (O(D)),
//   - convergecast of an associative aggregate and broadcast of the result
//     (O(D)), the standard primitives of Peleg's book cited as [43],
//   - broadcast of M values to all nodes in O(M+D) via tree pipelining,
//   - pipelined multi-source BFS / SSSP (source detection in the style of
//     Lenzen-Patt-Shamir [37]), the workhorse of Algorithms 1-3: exact
//     hop/distance-bounded distances from k sources in O(k+h) rounds, with
//     optional per-arc lengths (stretched scaled graphs, Section 5) and a
//     top-sigma cutoff (the sqrt(n)-nearest-neighbourhood computation of
//     Section 4).
package proto

import (
	"fmt"
	"slices"

	"congestmwc/internal/congest"
	"congestmwc/internal/graph"
)

// Protocol message tags. Each protocol uses its own tag space; tags are
// per-message and do not need to be globally unique across phases because
// phases run back-to-back to quiescence.
const (
	tagTreeExplore int64 = iota + 1
	tagTreeChild
	tagConvergeUp
	tagConvergeDown
	tagBroadcastVal
	tagBFSPair
)

// Tree is a rooted spanning tree of the communication graph, the result of
// BuildTree. Parent[root] == -1.
type Tree struct {
	Root     int
	Parent   []int
	Depth    []int
	Children [][]int
	// Height is the tree height: the eccentricity of the root in the
	// communication graph (BFS depth equals distance), hence at most D and
	// at least D/2 — the standard distributed proxy for the diameter.
	Height int
}

// BuildTree constructs a BFS spanning tree rooted at root over the
// communication graph in O(D) rounds. Every node learns its parent, depth
// and children.
func BuildTree(net *congest.Network, root int) (*Tree, error) {
	n := net.Graph().N()
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Depth:    make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	progs := make([]congest.Program, n)
	for v := 0; v < n; v++ {
		v := v
		progs[v] = congest.Funcs{
			OnInit: func(nd *congest.Node) {
				if v == root {
					t.Depth[v] = 0
					for _, u := range nd.Neighbors() {
						nd.SendTag(u, tagTreeExplore, 0)
					}
				}
			},
			OnDeliver: func(nd *congest.Node, d congest.Delivery) {
				switch d.Msg.Tag {
				case tagTreeExplore:
					if t.Depth[v] >= 0 {
						return
					}
					t.Depth[v] = int(d.Msg.Words[0]) + 1
					t.Parent[v] = d.From
					nd.SendTag(d.From, tagTreeChild)
					for _, u := range nd.Neighbors() {
						if u != d.From {
							nd.SendTag(u, tagTreeExplore, int64(t.Depth[v]))
						}
					}
				case tagTreeChild:
					t.Children[v] = append(t.Children[v], d.From)
				}
			},
		}
	}
	if _, err := net.Run(progs, 0); err != nil {
		return nil, fmt.Errorf("build tree: %w", err)
	}
	for v := 0; v < n; v++ {
		if t.Depth[v] > t.Height {
			t.Height = t.Depth[v]
		}
	}
	return t, nil
}

// ConvergecastMin computes min over the per-node int64 values and makes the
// result known to every node, in O(D) rounds (up the tree, then down). It
// is Convergecast with OpMin, kept as a named helper because it is the
// paper's most common aggregate.
func ConvergecastMin(net *congest.Network, tree *Tree, value []int64) (int64, error) {
	return Convergecast(net, tree, OpMin, value)
}

// Broadcast disseminates per-node value records to every node in O(M+D)
// rounds, where M is the total number of records: records are upcast to the
// root through the tree (pipelined by the transport) and flooded back down.
// Every record is a word tuple. Every node receives all M records, its own
// included, in one canonical order: the order they arrive at the root.
// Broadcast returns that list once; each non-root node checks that its k-th
// record from its parent equals the k-th canonical record, and a missing,
// extra or out-of-order record is an error.
func Broadcast(net *congest.Network, tree *Tree, values [][][]int64) ([][]int64, error) {
	n := net.Graph().N()
	m, words := 0, 0
	for _, recs := range values {
		m += len(recs)
		for _, rec := range recs {
			words += len(rec)
		}
	}
	b := &broadcast{
		tree:   tree,
		values: values,
		recs:   make([][]int64, m),
		arena:  make([]int64, words),
		got:    make([]int, n),
		bad:    make([]int, n),
	}
	nodes := make([]broadcastNode, n)
	progs := make([]congest.Program, n)
	for v := range nodes {
		nodes[v] = broadcastNode{b: b, v: v}
		progs[v] = &nodes[v]
	}
	if _, err := net.Run(progs, 0); err != nil {
		return nil, fmt.Errorf("broadcast: %w", err)
	}
	for v := 0; v < n; v++ {
		switch {
		case b.bad[v] > 0:
			return nil, fmt.Errorf("broadcast: node %d: record %d differs from the root's order of %d records", v, b.bad[v]-1, m)
		case b.got[v] != m:
			return nil, fmt.Errorf("broadcast: node %d received %d of %d records", v, b.got[v], m)
		}
	}
	return b.recs, nil
}

// broadcast is the state of one Broadcast run shared by its node programs.
// The root alone writes recs (into the pre-sized arena, in arrival order);
// node v alone writes got[v] and bad[v], and reads recs[k] only after
// receiving its k-th record, which the root wrote in an earlier round.
type broadcast struct {
	tree   *Tree
	values [][][]int64
	recs   [][]int64
	arena  []int64
	used   int   // arena words the root has filled
	got    []int // records each node has received from its parent (the root: recorded)
	bad    []int // 1 + index of the node's first wrong record; 0 when none
}

type broadcastNode struct {
	congest.Base
	b *broadcast
	v int
}

func (p *broadcastNode) Init(nd *congest.Node) {
	b := p.b
	for _, rec := range b.values[p.v] {
		if p.v == b.tree.Root {
			p.down(nd, rec)
			continue
		}
		nd.Send(b.tree.Parent[p.v], congest.Msg{Tag: tagBroadcastVal, Words: rec})
	}
}

func (p *broadcastNode) Deliver(nd *congest.Node, d congest.Delivery) {
	if d.Msg.Tag != tagBroadcastVal {
		return
	}
	if parent := p.b.tree.Parent[p.v]; parent >= 0 && d.From != parent {
		// Upward-bound record from a child: forward toward root.
		nd.Send(parent, congest.Msg{Tag: tagBroadcastVal, Words: d.Msg.Words})
		return
	}
	// At the root, or from the parent: the root has seen it, flood down.
	p.down(nd, d.Msg.Words)
}

// down accepts rec as the node's next record in the canonical order — the
// root appends it to the list, any other node checks it against the list —
// and passes it on to the node's children.
func (p *broadcastNode) down(nd *congest.Node, rec []int64) {
	b := p.b
	k := b.got[p.v]
	b.got[p.v]++
	switch {
	case k >= len(b.recs) || p.v != b.tree.Root && !slices.Equal(rec, b.recs[k]):
		if b.bad[p.v] == 0 {
			b.bad[p.v] = k + 1
		}
	case p.v == b.tree.Root:
		cp := b.arena[b.used : b.used+len(rec) : b.used+len(rec)]
		b.used += copy(cp, rec)
		b.recs[k] = cp
	}
	for _, c := range b.tree.Children[p.v] {
		nd.Send(c, congest.Msg{Tag: tagBroadcastVal, Words: rec})
	}
}

// arcsFor returns the arcs along which a node propagates for the given
// traversal direction. Propagating "Forward" means distances follow the
// input graph's arc directions, so a node forwards along its Out arcs;
// Backward follows reversed arcs (used for BFS in the reversed graph);
// Undirected treats every incident edge as traversable both ways.
func arcsFor(nd *congest.Node, dir Direction) []graph.Arc {
	switch dir {
	case Forward:
		return nd.Out()
	case Backward:
		return nd.In()
	default:
		return commArcs(nd)
	}
}

func commArcs(nd *congest.Node) []graph.Arc {
	// For undirected graphs Out already contains every incident edge. For
	// directed graphs traversed undirectedly, combine Out and In.
	if !nd.Directed() {
		return nd.Out()
	}
	arcs := make([]graph.Arc, 0, len(nd.Out())+len(nd.In()))
	arcs = append(arcs, nd.Out()...)
	arcs = append(arcs, nd.In()...)
	return arcs
}
