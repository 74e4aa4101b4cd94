package graph

// Automorphism is a graph automorphism given both as a node permutation and
// as the induced edge permutation: Node[v] = π(v) and Edge[e] is the ID of
// the image of edge e, i.e. the edge (π(From), π(To)).
type Automorphism struct {
	Node []NodeID
	Edge []EdgeID
}

// IsIdentity reports whether the automorphism fixes every node.
func (a Automorphism) IsIdentity() bool {
	for v, img := range a.Node {
		if NodeID(v) != img {
			return false
		}
	}
	return true
}

// OrderAutomorphisms returns every automorphism of g that additionally
// preserves the canonical incidence ordering: π maps the k-th incoming
// (outgoing) edge of v to the k-th incoming (outgoing) edge of π(v), for
// every v and k. The identity is always included and returned first; the
// remaining automorphisms are ordered by the image of node 0.
//
// Order preservation is the property that makes an automorphism commute
// with the global transition function of a node-uniform protocol: a
// reaction receives its in-labels in the canonical In order and writes its
// out-labels in the canonical Out order, so a permutation that preserves
// both orders maps executions to executions position by position — without
// assuming anything about the reaction beyond uniformity. This is what
// internal/explore's symmetry quotient relies on.
//
// For the unidirectional n-ring the result is all n rotations (degree-1
// incidence lists are trivially order-preserving); for most other
// topologies — including bidirectional rings and cliques, whose sorted-by-
// opposite-endpoint incidence order is not rotation invariant at the
// wraparound — it is just the identity.
//
// Each candidate is determined by the image of node 0 and found by
// constraint propagation over the incidence lists, so the search is
// O(n·(n+m)) overall; no backtracking is needed.
func (g *Graph) OrderAutomorphisms() []Automorphism {
	var out []Automorphism
	for v0 := 0; v0 < g.n; v0++ {
		if a, ok := g.propagateAutomorphism(NodeID(v0)); ok {
			out = append(out, a)
		}
	}
	return out
}

// propagateAutomorphism tries to extend the seed assignment π(0) = v0 to a
// full order-preserving automorphism. The k-th in/out edge of a mapped node
// forces the image of its opposite endpoint, so the candidate map grows by
// BFS from node 0; any conflict, degree mismatch, or non-bijectivity kills
// the candidate.
func (g *Graph) propagateAutomorphism(v0 NodeID) (Automorphism, bool) {
	const unset = NodeID(-1)
	node := make([]NodeID, g.n)
	for i := range node {
		node[i] = unset
	}
	node[0] = v0
	queue := []NodeID{0}
	assign := func(u, img NodeID) bool {
		if node[u] == unset {
			node[u] = img
			queue = append(queue, u)
			return true
		}
		return node[u] == img
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		w := node[u]
		outU, outW, inU, inW := g.Out(u), g.Out(w), g.In(u), g.In(w)
		if len(outU) != len(outW) || len(inU) != len(inW) {
			return Automorphism{}, false
		}
		for k, id := range outU {
			if !assign(g.Head(id), g.Head(outW[k])) {
				return Automorphism{}, false
			}
		}
		for k, id := range inU {
			if !assign(NodeID(g.tails[id]), NodeID(g.tails[inW[k]])) {
				return Automorphism{}, false
			}
		}
	}
	// Bijectivity (also rejects candidates on disconnected graphs, where
	// propagation leaves nodes unmapped).
	seen := make([]bool, g.n)
	for _, img := range node {
		if img == unset || seen[img] {
			return Automorphism{}, false
		}
		seen[img] = true
	}
	// Build the induced edge permutation; every image edge must exist.
	return automorphismFromNodes(g, node)
}
