package graph

// Topology-aware symmetry-group detection. Each detector recognizes one
// standard topology from the bare edge set (node numbering included — the
// detectors match the shapes this package's constructors produce, which is
// what the rest of the repo instantiates) and returns its natural
// automorphism group from a handful of generators:
//
//	clique K_n         → full symmetric group S_n            order n!
//	hypercube Q_d      → signed permutations (translations   order 2^d·d!
//	                     XOR t, bit permutations)
//	bidirectional ring → dihedral group (rotations +         order 2n
//	                     a reflection)
//	torus r×c          → translation group Z_r × Z_c          order r·c
//
// These groups are far larger than anything OrderAutomorphisms can certify:
// order preservation pins π by π(0) (≤ n elements), and the sorted-by-
// opposite-endpoint incidence order breaks even rotations at the ring
// wraparound. Arbitrary automorphisms are sound only for protocols that
// declare multiset-invariant broadcast reactions (core.NewSymmetricProtocol);
// the explore layer picks the group accordingly.

// SymmetryGroup returns the best automorphism group this package can
// certify for g: a detected topology group when g matches one of the
// standard constructors, else the order-preserving group (which is never
// empty — it always contains the identity).
//
// Soundness caveat: the returned group commutes with a protocol's
// transition relation only when the protocol's reactions are invariant
// under the group's edge reshuffling. core.Protocol.Symmetric protocols
// commute with every automorphism; merely node-uniform protocols only with
// order-preserving ones, so the explore layer must call
// OrderPreservingGroup for those instead.
func (g *Graph) SymmetryGroup() *Group {
	if gr, ok := CliqueGroup(g); ok {
		return gr
	}
	if gr, ok := HypercubeGroup(g); ok {
		return gr
	}
	if gr, ok := DihedralGroup(g); ok {
		return gr
	}
	if gr, ok := TorusGroup(g); ok {
		return gr
	}
	return g.OrderPreservingGroup()
}

// OrderPreservingGroup wraps OrderAutomorphisms as a Group: every
// automorphism that maps the k-th in/out edge of v to the k-th in/out edge
// of π(v). This is the group that is sound for any node-uniform protocol;
// it has at most n elements (π is determined by π(0) on a connected graph).
func (g *Graph) OrderPreservingGroup() *Group {
	elems := g.OrderAutomorphisms()
	return &Group{
		g:     g,
		gens:  reduceGenerators(g, elems),
		elems: elems,
		order: len(elems),
	}
}

// CliqueGroup detects the complete directed graph K_n and returns the full
// symmetric group S_n, generated by the transposition (0 1) and the n-cycle
// (0 1 … n−1).
func CliqueGroup(g *Graph) (*Group, bool) {
	n := g.n
	if g.M() != n*(n-1) {
		return nil, false
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !g.HasEdge(NodeID(u), NodeID(v)) {
				return nil, false
			}
		}
	}
	if n < 2 {
		return mustGroup(g, nil), true
	}
	swap := identityPerm(n)
	swap[0], swap[1] = 1, 0
	gens := []Automorphism{mustFromNodes(g, swap)}
	if n > 2 {
		cyc := make([]NodeID, n)
		for v := range cyc {
			cyc[v] = NodeID((v + 1) % n)
		}
		gens = append(gens, mustFromNodes(g, cyc))
	}
	return mustGroup(g, gens), true
}

// HypercubeGroup detects the d-dimensional hypercube Q_d (nodes are the
// 2^d bitstrings, edges v ↔ v⊕2^b) and returns its full automorphism
// group, the signed permutations of the d coordinates: translations
// v ↦ v⊕t composed with bit permutations. The group has order 2^d·d! and
// is generated by the single translation v ↦ v⊕1 together with a bit swap
// and a bit cycle (conjugating the translation by the bit permutations
// yields every coordinate translation).
func HypercubeGroup(g *Graph) (*Group, bool) {
	n := g.n
	d := 0
	for 1<<d < n {
		d++
	}
	if 1<<d != n || g.M() != n*d {
		return nil, false
	}
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			if !g.HasEdge(NodeID(v), NodeID(v^(1<<b))) {
				return nil, false
			}
		}
	}
	var gens []Automorphism
	trans := make([]NodeID, n)
	for v := range trans {
		trans[v] = NodeID(v ^ 1)
	}
	gens = append(gens, mustFromNodes(g, trans))
	if d >= 2 {
		swap := make([]NodeID, n)
		for v := range swap {
			swap[v] = NodeID(v&^3 | v>>1&1 | (v&1)<<1)
		}
		gens = append(gens, mustFromNodes(g, swap))
	}
	if d >= 3 {
		cyc := make([]NodeID, n)
		for v := range cyc {
			img := v << 1 & (n - 1)
			if v&(n>>1) != 0 {
				img |= 1
			}
			cyc[v] = NodeID(img)
		}
		gens = append(gens, mustFromNodes(g, cyc))
	}
	return mustGroup(g, gens), true
}

// DihedralGroup detects a bidirectional ring on n ≥ 3 nodes (in any node
// numbering) and returns its dihedral group of order 2n, generated by one
// step of rotation along the cycle and one reflection.
func DihedralGroup(g *Graph) (*Group, bool) {
	n := g.n
	if n < 3 || g.M() != 2*n {
		return nil, false
	}
	for v := 0; v < n; v++ {
		if g.OutDegree(NodeID(v)) != 2 || g.InDegree(NodeID(v)) != 2 {
			return nil, false
		}
	}
	// Walk the cycle from node 0; every edge must be paired with its
	// reverse and the walk must close after exactly n steps.
	cycle := make([]NodeID, 0, n)
	onCycle := make([]bool, n)
	prev, cur := NodeID(-1), NodeID(0)
	for {
		cycle = append(cycle, cur)
		onCycle[cur] = true
		next := NodeID(-1)
		for _, id := range g.Out(cur) {
			to := g.Head(id)
			if !g.HasEdge(to, cur) {
				return nil, false
			}
			if to != prev {
				next = to
			}
		}
		if next < 0 || (onCycle[next] && next != 0) {
			return nil, false
		}
		if next == 0 {
			break
		}
		prev, cur = cur, next
	}
	if len(cycle) != n {
		return nil, false
	}
	pos := make([]int, n)
	for i, v := range cycle {
		pos[v] = i
	}
	rot := make([]NodeID, n)
	refl := make([]NodeID, n)
	for v := 0; v < n; v++ {
		rot[v] = cycle[(pos[v]+1)%n]
		refl[v] = cycle[(n-pos[v])%n]
	}
	return mustGroup(g, []Automorphism{
		mustFromNodes(g, rot),
		mustFromNodes(g, refl),
	}), true
}

// TorusGroup detects a rows×cols torus grid in the Torus constructor's
// node numbering (node = row·cols + col) with rows, cols ≥ 3 — smaller
// extents collapse wraparound edges and are better served by the other
// detectors — and returns its translation group Z_rows × Z_cols, generated
// by one row shift and one column shift.
func TorusGroup(g *Graph) (*Group, bool) {
	n := g.n
	for rows := 3; rows*3 <= n; rows++ {
		if n%rows != 0 {
			continue
		}
		cols := n / rows
		if !isTorus(g, rows, cols) {
			continue
		}
		rowShift := make([]NodeID, n)
		colShift := make([]NodeID, n)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				v := r*cols + c
				rowShift[v] = NodeID(((r+1)%rows)*cols + c)
				colShift[v] = NodeID(r*cols + (c+1)%cols)
			}
		}
		return mustGroup(g, []Automorphism{
			mustFromNodes(g, rowShift),
			mustFromNodes(g, colShift),
		}), true
	}
	return nil, false
}

// isTorus checks that g's edge set is exactly the rows×cols torus's.
func isTorus(g *Graph, rows, cols int) bool {
	if g.M() != 4*rows*cols {
		return false
	}
	deg := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := NodeID(r*cols + c)
			for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				u := NodeID(((r+d[0]+rows)%rows)*cols + (c+d[1]+cols)%cols)
				if !g.HasEdge(v, u) {
					return false
				}
				deg++
			}
		}
	}
	// Degree sum matches the edge count, so the checked edges are all of
	// them (rows, cols ≥ 3 keeps the four neighbors distinct).
	return deg == g.M()
}

// mustFromNodes lifts a node permutation built by a detector; the detectors
// only call it after verifying the edge set, so failure is a bug.
func mustFromNodes(g *Graph, node []NodeID) Automorphism {
	a, ok := automorphismFromNodes(g, node)
	if !ok {
		panic("graph: detected symmetry is not an automorphism")
	}
	return a
}
