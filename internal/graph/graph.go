// Package graph provides the directed-graph substrate on which stateless
// protocols run. Nodes are identified by dense integer IDs 0..n-1 and edges
// are directed; the package guarantees a deterministic ordering of each
// node's incoming and outgoing edges, which the core model relies on when
// wiring reaction functions (δ_i : Σ^{-i} × {0,1} → Σ^{+i} × {0,1}).
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node (processor) in a graph. IDs are dense: a graph
// with n nodes uses IDs 0..n-1. The paper indexes nodes 1..n; we use
// 0-based IDs and translate in documentation where it matters.
type NodeID int

// Edge is a directed edge between two nodes.
type Edge struct {
	From NodeID
	To   NodeID
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d->%d)", e.From, e.To) }

// EdgeID is the dense index of an edge within a graph's edge list. A global
// labeling ℓ ∈ Σ^E is represented as a slice indexed by EdgeID. It is 32
// bits wide, so New rejects graphs of more than math.MaxInt32 edges.
type EdgeID int32

// Graph is an immutable directed graph. Build one with a Builder or one of
// the topology constructors (Ring, BidirectionalRing, Clique, ...).
type Graph struct {
	n int
	// tails[id] and heads[id] are the endpoints of edge id.
	tails, heads []int32
	// Flat (CSR) adjacency: v's incoming edge IDs are
	// inIDs[inOff[v]:inOff[v+1]], sorted by source node, and its outgoing
	// ones outIDs[outOff[v]:outOff[v+1]], sorted by destination node. No
	// two edges of a range share that opposite endpoint (New rejects
	// duplicates), so the order is total. It is part of the public
	// contract: reaction functions receive/produce label slices in exactly
	// this order.
	inOff, outOff []int32
	inIDs, outIDs []EdgeID
	maxDegree     int // see MaxDegree
}

// Errors returned by graph constructors.
var (
	ErrNoNodes       = errors.New("graph: must have at least one node")
	ErrTooLarge      = errors.New("graph: more than math.MaxInt32 nodes or edges")
	ErrNodeRange     = errors.New("graph: edge endpoint out of range")
	ErrSelfLoop      = errors.New("graph: self-loops are not allowed")
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
)

// New constructs a graph with n nodes and the given directed edges.
// Self-loops and duplicate edges are rejected: the stateless model forbids a
// node from reading its own outgoing labels, and a labeling assigns exactly
// one label per ordered pair. Node and edge indices are stored as int32, so
// n and len(edges) must not exceed math.MaxInt32.
//
// The adjacency is built by counting sort in edge-ID order, and each range
// is then sorted by its opposite endpoint; the whole graph takes a fixed
// number of allocations, none per node.
func New(n int, edges []Edge) (*Graph, error) {
	if n <= 0 {
		return nil, ErrNoNodes
	}
	if int64(n) > math.MaxInt32 || int64(len(edges)) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: n=%d, m=%d", ErrTooLarge, n, len(edges))
	}
	m := len(edges)
	g := &Graph{
		n:      n,
		tails:  make([]int32, m),
		heads:  make([]int32, m),
		inOff:  make([]int32, n+1),
		outOff: make([]int32, n+1),
		inIDs:  make([]EdgeID, m),
		outIDs: make([]EdgeID, m),
	}
	for id, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("%w: %v with n=%d", ErrNodeRange, e, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("%w: %v", ErrSelfLoop, e)
		}
		g.tails[id], g.heads[id] = int32(e.From), int32(e.To)
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
	}
	bucket(g.outOff, g.outIDs, g.tails)
	bucket(g.inOff, g.inIDs, g.heads)
	byHead := func(a, b EdgeID) int { return cmp.Compare(g.heads[a], g.heads[b]) }
	byTail := func(a, b EdgeID) int { return cmp.Compare(g.tails[a], g.tails[b]) }
	for v := range n {
		out := g.Out(NodeID(v))
		slices.SortFunc(out, byHead)
		for i := 1; i < len(out); i++ {
			if g.heads[out[i]] == g.heads[out[i-1]] {
				return nil, fmt.Errorf("%w: %v", ErrDuplicateEdge, g.Edge(out[i]))
			}
		}
		slices.SortFunc(g.In(NodeID(v)), byTail)
		g.maxDegree = max(g.maxDegree, len(out)+g.InDegree(NodeID(v)))
	}
	return g, nil
}

// bucket turns per-node counts (off[v+1] = number of edges with key v) into
// CSR offsets and lists every edge ID in its key's range, in ID order.
func bucket(off []int32, ids []EdgeID, key []int32) {
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	// off[v] is v's fill cursor; filling advances it to off[v+1]'s value,
	// so shifting back by one slot restores the offsets.
	for id, v := range key {
		ids[off[v]] = EdgeID(id)
		off[v]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// MustNew is New but panics on error. Intended for package-internal
// constructions with statically valid arguments (topology builders, tests).
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.heads) }

// Edges returns a copy of the edge list, indexed by EdgeID.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, len(g.heads))
	for id := range edges {
		edges[id] = g.Edge(EdgeID(id))
	}
	return edges
}

// Edge returns the endpoints of edge id.
func (g *Graph) Edge(id EdgeID) Edge { return Edge{NodeID(g.tails[id]), NodeID(g.heads[id])} }

// Head returns the destination node of edge id: the node that reads it.
func (g *Graph) Head(id EdgeID) NodeID { return NodeID(g.heads[id]) }

// In returns node v's incoming edge IDs in canonical order (sorted by
// source node). The returned slice must not be modified.
func (g *Graph) In(v NodeID) []EdgeID {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.inIDs[lo:hi:hi]
}

// Out returns node v's outgoing edge IDs in canonical order (sorted by
// destination node). The returned slice must not be modified.
func (g *Graph) Out(v NodeID) []EdgeID {
	lo, hi := g.outOff[v], g.outOff[v+1]
	return g.outIDs[lo:hi:hi]
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inOff[v+1] - g.inOff[v]) }

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outOff[v+1] - g.outOff[v]) }

// MaxDegree returns Δ(G) = max over nodes of (in-degree + out-degree)/...
// Following the paper's Theorem 5.10, the degree of a node counts both
// incoming and outgoing edges; for bidirectional topologies this is twice
// the undirected degree. We report max(in+out), computed once by New.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// EdgeIDOf returns the EdgeID of the edge from→to, if present.
func (g *Graph) EdgeIDOf(from, to NodeID) (EdgeID, bool) {
	if i, ok := g.OutIndex(from, to); ok {
		return g.Out(from)[i], true
	}
	return 0, false
}

// HasEdge reports whether the directed edge from→to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	_, ok := g.OutIndex(from, to)
	return ok
}

// InIndex returns the position of edge (from→to) within To(v)'s canonical
// incoming order, i.e. the index at which node to's reaction function sees
// the label written by from.
func (g *Graph) InIndex(from, to NodeID) (int, bool) {
	for i, id := range g.In(to) {
		if NodeID(g.tails[id]) == from {
			return i, true
		}
	}
	return 0, false
}

// OutIndex returns the position of edge (from→to) within from's canonical
// outgoing order.
func (g *Graph) OutIndex(from, to NodeID) (int, bool) {
	for i, id := range g.Out(from) {
		if NodeID(g.heads[id]) == to {
			return i, true
		}
	}
	return 0, false
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d}", g.n, g.M())
}
