package graph

import (
	"errors"
	"fmt"
)

// Group is a finite group of automorphisms of one graph, represented by a
// generator set. It is the symmetry-quotient currency of the repo: the
// explore layer canonicalizes packed states by minimizing over a Group's
// orbit, so everything the verifier needs — membership, orbit enumeration,
// the group order for Decision.Quotient — is derived from the generators
// here rather than from a flat []Automorphism.
//
// Small groups (order ≤ MaterializeLimit) are materialized eagerly by
// closure BFS over the generators, which keeps the explore layer's
// element scan available. Larger groups — the
// hypercube's signed permutations have order 2^d·d!, far past any sensible
// table budget — stay generator-only: Order is computed by a
// stabilizer-chain (orbit × stabilizer) recursion and orbits are enumerated
// lazily by BFS over the generators, so the full element set is never
// written down.
type Group struct {
	g     *Graph
	gens  []Automorphism // non-identity generators, deduplicated
	elems []Automorphism // all elements incl. identity, nil when not materialized
	order int
}

// MaterializeLimit is the largest group order NewGroup materializes as an
// explicit element slice. Beyond it the group stays generator-only.
const MaterializeLimit = 4096

// ErrNotAutomorphism reports a generator that is not an automorphism of the
// graph it was supplied with.
var ErrNotAutomorphism = errors.New("graph: not an automorphism")

// NewGroup builds the group generated by gens. Every generator is validated
// as a genuine automorphism (bijective node map whose induced edge map
// matches the graph); identity generators are dropped and duplicates
// deduplicated. The group is materialized when its order is at most
// MaterializeLimit.
func NewGroup(g *Graph, gens []Automorphism) (*Group, error) {
	kept := make([]Automorphism, 0, len(gens))
	seen := make(map[string]bool)
	for i, a := range gens {
		if err := validateAutomorphism(g, a); err != nil {
			return nil, fmt.Errorf("generator %d: %w", i, err)
		}
		if a.IsIdentity() {
			continue
		}
		k := permKey(a.Node)
		if !seen[k] {
			seen[k] = true
			kept = append(kept, a)
		}
	}
	gr := &Group{g: g, gens: kept}
	if elems, ok := closure(g, kept, MaterializeLimit); ok {
		gr.elems = elems
		gr.order = len(elems)
	} else {
		perms := make([][]NodeID, len(kept))
		for i := range kept {
			perms[i] = kept[i].Node
		}
		gr.order = chainOrder(g.n, perms)
	}
	return gr, nil
}

// mustGroup wraps NewGroup for generators that are correct by construction.
func mustGroup(g *Graph, gens []Automorphism) *Group {
	gr, err := NewGroup(g, gens)
	if err != nil {
		panic(err)
	}
	return gr
}

// Graph returns the graph the group acts on.
func (gr *Group) Graph() *Graph { return gr.g }

// Order returns |Γ|, the number of elements including the identity.
func (gr *Group) Order() int { return gr.order }

// Generators returns the non-identity generator set. The slice is shared;
// callers must not modify it.
func (gr *Group) Generators() []Automorphism { return gr.gens }

// Elements returns every element including the identity when the group is
// materialized (order ≤ MaterializeLimit), and nil otherwise. The slice is
// shared; callers must not modify it.
func (gr *Group) Elements() []Automorphism { return gr.elems }

// Subgroup returns the subgroup of elements satisfying keep. The predicate
// must describe a property closed under composition and inverse — input
// invariance (x∘π = x) is the canonical example — otherwise the result is
// not a group and canonicalizing over it would be unsound.
//
// For a materialized group the subgroup is exact: every element is tested.
// For a generator-only group the result is the closure of the generators
// that satisfy keep — a subgroup of the true invariant subgroup, which is
// still sound for quotienting (a smaller group just quotients less).
func (gr *Group) Subgroup(keep func(Automorphism) bool) *Group {
	if gr.elems != nil {
		kept := make([]Automorphism, 0, len(gr.elems))
		for _, a := range gr.elems {
			if a.IsIdentity() || keep(a) {
				kept = append(kept, a)
			}
		}
		if len(kept) == len(gr.elems) {
			return gr
		}
		return &Group{
			g:     gr.g,
			gens:  reduceGenerators(gr.g, kept),
			elems: kept,
			order: len(kept),
		}
	}
	kgens := make([]Automorphism, 0, len(gr.gens))
	for _, a := range gr.gens {
		if keep(a) {
			kgens = append(kgens, a)
		}
	}
	if len(kgens) == len(gr.gens) {
		return gr
	}
	sub, err := NewGroup(gr.g, kgens) // generators were validated already
	if err != nil {
		panic(err)
	}
	return sub
}

// validateAutomorphism checks that a is a genuine automorphism of g: Node is
// a bijection on the node set and Edge is exactly the edge permutation it
// induces (every image edge exists and is recorded).
func validateAutomorphism(g *Graph, a Automorphism) error {
	if len(a.Node) != g.n || len(a.Edge) != g.M() {
		return fmt.Errorf("%w: size mismatch", ErrNotAutomorphism)
	}
	seen := make([]bool, g.n)
	for _, img := range a.Node {
		if img < 0 || int(img) >= g.n || seen[img] {
			return fmt.Errorf("%w: node map is not a bijection", ErrNotAutomorphism)
		}
		seen[img] = true
	}
	for id := range a.Edge {
		e := g.Edge(EdgeID(id))
		img, ok := g.EdgeIDOf(a.Node[e.From], a.Node[e.To])
		if !ok {
			return fmt.Errorf("%w: image of edge %v missing", ErrNotAutomorphism, e)
		}
		if a.Edge[id] != img {
			return fmt.Errorf("%w: edge map disagrees with node map on %v", ErrNotAutomorphism, e)
		}
	}
	return nil
}

// automorphismFromNodes lifts a node permutation to a full Automorphism by
// inducing the edge permutation, or reports false when some image edge does
// not exist (the permutation is not an automorphism).
func automorphismFromNodes(g *Graph, node []NodeID) (Automorphism, bool) {
	edge := make([]EdgeID, g.M())
	for id := range edge {
		img, ok := g.EdgeIDOf(node[g.tails[id]], node[g.heads[id]])
		if !ok {
			return Automorphism{}, false
		}
		edge[id] = img
	}
	return Automorphism{Node: node, Edge: edge}, true
}

// compose returns a∘b: first b, then a. The composition convention matches
// the explore layer's state action — apply(a, apply(b, s)) equals
// apply(compose(a, b), s).
func compose(a, b Automorphism) Automorphism {
	node := make([]NodeID, len(a.Node))
	for v := range node {
		node[v] = a.Node[b.Node[v]]
	}
	edge := make([]EdgeID, len(a.Edge))
	for e := range edge {
		edge[e] = a.Edge[b.Edge[e]]
	}
	return Automorphism{Node: node, Edge: edge}
}

// identityAutomorphism returns the identity of g's automorphism group.
func identityAutomorphism(g *Graph) Automorphism {
	node := make([]NodeID, g.n)
	for v := range node {
		node[v] = NodeID(v)
	}
	edge := make([]EdgeID, g.M())
	for e := range edge {
		edge[e] = EdgeID(e)
	}
	return Automorphism{Node: node, Edge: edge}
}

// permKey is a map key for a node permutation.
func permKey(node []NodeID) string {
	buf := make([]byte, 2*len(node))
	for i, v := range node {
		buf[2*i] = byte(v)
		buf[2*i+1] = byte(v >> 8)
	}
	return string(buf)
}

// closure materializes ⟨gens⟩ by BFS from the identity, multiplying by the
// generators on the left. Every group element is a positive word in the
// generators (the group is finite, so inverses are positive powers), hence
// the BFS reaches all of ⟨gens⟩. Returns ok=false once more than limit
// elements appear; the partial slice is discarded by callers.
func closure(g *Graph, gens []Automorphism, limit int) ([]Automorphism, bool) {
	id := identityAutomorphism(g)
	elems := []Automorphism{id}
	seen := map[string]bool{permKey(id.Node): true}
	for i := 0; i < len(elems); i++ {
		for _, s := range gens {
			prod := compose(s, elems[i])
			k := permKey(prod.Node)
			if !seen[k] {
				if len(elems) >= limit {
					return nil, false
				}
				seen[k] = true
				elems = append(elems, prod)
			}
		}
	}
	return elems, true
}

// reduceGenerators greedily extracts a small generating set from a
// materialized element list: repeatedly adjoin the first element not yet in
// the closure of the picks. The result has at most log₂|Γ| generators
// (each pick at least doubles the closure), which keeps generator-BFS orbit
// walks cheap even when the subgroup was produced by element filtering.
func reduceGenerators(g *Graph, elems []Automorphism) []Automorphism {
	var gens []Automorphism
	have := map[string]bool{permKey(identityAutomorphism(g).Node): true}
	for {
		var pick *Automorphism
		for i := range elems {
			if !have[permKey(elems[i].Node)] {
				pick = &elems[i]
				break
			}
		}
		if pick == nil {
			return gens
		}
		gens = append(gens, *pick)
		closed, ok := closure(g, gens, len(elems))
		if !ok {
			// Cannot happen for a genuine subgroup: ⟨picks⟩ ⊆ elems.
			panic("graph: reduceGenerators closure exceeded element count")
		}
		have = make(map[string]bool, len(closed))
		for _, a := range closed {
			have[permKey(a.Node)] = true
		}
	}
}

// chainOrder computes |⟨gens⟩| without materializing the group, by the
// orbit–stabilizer recursion behind stabilizer chains: pick the smallest
// moved point β, enumerate its orbit with a transversal, build Schreier
// generators for the stabilizer of β, and recurse —
// |Γ| = |orbit(β)| · |Stab(β)|. Deduplication bounds each level's
// generator count by the stabilizer order, which keeps the recursion cheap
// for the moderate orders this repo constructs (hypercubes, cliques up to a
// few million elements).
func chainOrder(n int, perms [][]NodeID) int {
	var gens [][]NodeID
	for _, p := range perms {
		if !isIdentityPerm(p) {
			gens = append(gens, p)
		}
	}
	if len(gens) == 0 {
		return 1
	}
	beta := -1
	for v := 0; v < n && beta < 0; v++ {
		for _, p := range gens {
			if p[v] != NodeID(v) {
				beta = v
				break
			}
		}
	}
	// Orbit of β with a transversal: trans[q] maps β to q.
	trans := map[NodeID][]NodeID{NodeID(beta): identityPerm(n)}
	queue := []NodeID{NodeID(beta)}
	for len(queue) > 0 {
		pt := queue[0]
		queue = queue[1:]
		for _, s := range gens {
			q := s[pt]
			if _, ok := trans[q]; !ok {
				trans[q] = composePerm(s, trans[pt])
				queue = append(queue, q)
			}
		}
	}
	// Schreier's lemma: {u⁻¹·s·t : t transversal, s generator, u the
	// transversal rep of s(t(β))} generates Stab(β).
	var sub [][]NodeID
	seen := make(map[string]bool)
	for pt, t := range trans {
		for _, s := range gens {
			u := trans[s[pt]]
			sg := composePerm(invPerm(u), composePerm(s, t))
			if isIdentityPerm(sg) {
				continue
			}
			k := permKey(sg)
			if !seen[k] {
				seen[k] = true
				sub = append(sub, sg)
			}
		}
	}
	return len(trans) * chainOrder(n, sub)
}

func identityPerm(n int) []NodeID {
	p := make([]NodeID, n)
	for i := range p {
		p[i] = NodeID(i)
	}
	return p
}

func isIdentityPerm(p []NodeID) bool {
	for i, v := range p {
		if NodeID(i) != v {
			return false
		}
	}
	return true
}

func composePerm(a, b []NodeID) []NodeID {
	out := make([]NodeID, len(a))
	for i := range out {
		out[i] = a[b[i]]
	}
	return out
}

func invPerm(p []NodeID) []NodeID {
	out := make([]NodeID, len(p))
	for i, v := range p {
		out[v] = NodeID(i)
	}
	return out
}
