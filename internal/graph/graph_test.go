package graph

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n       int
		edges   []Edge
		wantErr error
	}{
		{"no nodes", 0, nil, ErrNoNodes},
		{"negative from", 2, []Edge{{-1, 0}}, ErrNodeRange},
		{"to out of range", 2, []Edge{{0, 2}}, ErrNodeRange},
		{"self loop", 2, []Edge{{1, 1}}, ErrSelfLoop},
		{"duplicate", 2, []Edge{{0, 1}, {0, 1}}, ErrDuplicateEdge},
		{"duplicate apart", 3, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 1}}, ErrDuplicateEdge},
		{"ok", 2, []Edge{{0, 1}, {1, 0}}, nil},
		{"ok no edges", 3, nil, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.edges)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("New() error = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("New() error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// Node and edge indices are int32: a size past math.MaxInt32 must fail
// before anything is allocated, not wrap. Only the node count is tested;
// an edge list that long would need tens of gigabytes.
func TestNewRejectsTooLarge(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed math.MaxInt32")
	}
	big := int64(math.MaxInt32)
	if _, err := New(int(big+1), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("New(MaxInt32+1, nil) error = %v, want %v", err, ErrTooLarge)
	}
}

// refAdjacency is the adjacency built the straightforward way: one slice per
// node and direction, sorted by opposite endpoint and then by EdgeID.
func refAdjacency(n int, edges []Edge) (in, out [][]EdgeID) {
	in, out = make([][]EdgeID, n), make([][]EdgeID, n)
	for id, e := range edges {
		out[e.From] = append(out[e.From], EdgeID(id))
		in[e.To] = append(in[e.To], EdgeID(id))
	}
	sortBy := func(ids []EdgeID, end func(Edge) NodeID) {
		sort.Slice(ids, func(a, b int) bool {
			ea, eb := end(edges[ids[a]]), end(edges[ids[b]])
			if ea != eb {
				return ea < eb
			}
			return ids[a] < ids[b]
		})
	}
	for v := range n {
		sortBy(in[v], func(e Edge) NodeID { return e.From })
		sortBy(out[v], func(e Edge) NodeID { return e.To })
	}
	return in, out
}

// randomEdges returns the edges of a random loop-free digraph on n nodes
// (each ordered pair with probability p) in shuffled order.
func randomEdges(n int, p float64, rng *rand.Rand) []Edge {
	var edges []Edge
	for u := range n {
		for v := range n {
			if u != v && rng.Float64() < p {
				edges = append(edges, Edge{NodeID(u), NodeID(v)})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// checkAgainstReference compares every adjacency query of g with the
// reference built from the same edge list.
func checkAgainstReference(t *testing.T, g *Graph, edges []Edge) {
	t.Helper()
	n := g.N()
	in, out := refAdjacency(n, edges)
	if g.M() != len(edges) {
		t.Fatalf("M = %d, want %d", g.M(), len(edges))
	}
	maxDeg := 0
	for v := range n {
		node := NodeID(v)
		if !slices.Equal(g.In(node), in[v]) {
			t.Fatalf("In(%d) = %v, want %v", v, g.In(node), in[v])
		}
		if !slices.Equal(g.Out(node), out[v]) {
			t.Fatalf("Out(%d) = %v, want %v", v, g.Out(node), out[v])
		}
		if g.InDegree(node) != len(in[v]) || g.OutDegree(node) != len(out[v]) {
			t.Fatalf("node %d degrees (%d, %d), want (%d, %d)", v,
				g.InDegree(node), g.OutDegree(node), len(in[v]), len(out[v]))
		}
		maxDeg = max(maxDeg, len(in[v])+len(out[v]))
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", g.MaxDegree(), maxDeg)
	}
	for id, e := range edges {
		if g.Edge(EdgeID(id)) != e || g.Head(EdgeID(id)) != e.To {
			t.Fatalf("edge %d = %v (head %d), want %v", id, g.Edge(EdgeID(id)), g.Head(EdgeID(id)), e)
		}
	}
	// Every ordered pair, present or not, against the reference.
	for u := range n {
		for v := range n {
			from, to := NodeID(u), NodeID(v)
			wantIn, wantOut, wantID := -1, -1, EdgeID(-1)
			for i, id := range out[u] {
				if edges[id].To == to {
					wantOut, wantID = i, id
				}
			}
			for i, id := range in[v] {
				if edges[id].From == from {
					wantIn = i
				}
			}
			if i, ok := g.OutIndex(from, to); ok != (wantOut >= 0) || ok && i != wantOut {
				t.Fatalf("OutIndex(%d, %d) = %d, %v; want %d", u, v, i, ok, wantOut)
			}
			if i, ok := g.InIndex(from, to); ok != (wantIn >= 0) || ok && i != wantIn {
				t.Fatalf("InIndex(%d, %d) = %d, %v; want %d", u, v, i, ok, wantIn)
			}
			if id, ok := g.EdgeIDOf(from, to); ok != (wantID >= 0) || ok && id != wantID {
				t.Fatalf("EdgeIDOf(%d, %d) = %d, %v; want %d", u, v, id, ok, wantID)
			}
			if g.HasEdge(from, to) != (wantID >= 0) {
				t.Fatalf("HasEdge(%d, %d) = %v", u, v, !(wantID >= 0))
			}
		}
	}
}

// TestNewMatchesReference pins the CSR build to the per-node reference on
// seeded random graphs (edges in shuffled order, degrees past the small-sort
// cutoff) and on every topology constructor, checks that a duplicate pair is
// rejected wherever it sits, and bounds New's allocations so per-node
// allocation cannot return.
func TestNewMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 1))
	for trial := range 40 {
		n := 1 + rng.IntN(40)
		edges := randomEdges(n, rng.Float64(), rng)
		g, err := New(n, edges)
		if err != nil {
			t.Fatalf("trial %d: New: %v", trial, err)
		}
		checkAgainstReference(t, g, edges)
	}
	for name, g := range map[string]*Graph{
		"ring":     Ring(7),
		"biring":   BidirectionalRing(6),
		"clique":   Clique(14),
		"star":     Star(15),
		"path":     Path(5),
		"torus":    Torus(3, 4),
		"cube":     Hypercube(4),
		"random":   RandomStronglyConnected(20, 0.3, rand.New(rand.NewPCG(3, 4))),
		"one node": MustNew(1, nil),
	} {
		t.Run(name, func(t *testing.T) { checkAgainstReference(t, g, g.Edges()) })
	}

	edges := randomEdges(12, 0.5, rng)
	k := len(edges)
	for name, dup := range map[string][]Edge{
		"first and middle": append([]Edge{edges[k/2]}, edges...),
		"first and last":   append(append([]Edge(nil), edges...), edges[0]),
		"last and first":   append([]Edge{edges[k-1]}, edges...),
		"adjacent":         append(append(append([]Edge(nil), edges[:k/2+1]...), edges[k/2]), edges[k/2+1:]...),
	} {
		if _, err := New(12, dup); !errors.Is(err, ErrDuplicateEdge) {
			t.Errorf("duplicate %s: New error = %v, want %v", name, err, ErrDuplicateEdge)
		}
	}

	ring := Ring(1 << 12).Edges()
	if a := testing.AllocsPerRun(10, func() { MustNew(1<<12, ring) }); a > 8 {
		t.Errorf("New(Ring(4096)) makes %.0f allocations, want ≤ 8", a)
	}
}

func TestCanonicalEdgeOrder(t *testing.T) {
	// Edges supplied out of order; In/Out must be sorted by opposite node.
	g := MustNew(4, []Edge{{3, 1}, {0, 1}, {2, 1}, {1, 0}, {1, 3}, {1, 2}})
	in := g.In(1)
	wantFrom := []NodeID{0, 2, 3}
	if len(in) != len(wantFrom) {
		t.Fatalf("In(1) has %d edges, want %d", len(in), len(wantFrom))
	}
	for i, id := range in {
		if g.Edge(id).From != wantFrom[i] {
			t.Errorf("In(1)[%d] from %d, want %d", i, g.Edge(id).From, wantFrom[i])
		}
	}
	out := g.Out(1)
	wantTo := []NodeID{0, 2, 3}
	for i, id := range out {
		if g.Edge(id).To != wantTo[i] {
			t.Errorf("Out(1)[%d] to %d, want %d", i, g.Edge(id).To, wantTo[i])
		}
	}
}

func TestInOutIndex(t *testing.T) {
	g := BidirectionalRing(5)
	for v := NodeID(0); v < 5; v++ {
		cw := (v + 1) % 5
		ccw := (v + 4) % 5
		if i, ok := g.OutIndex(v, cw); !ok || g.Edge(g.Out(v)[i]).To != cw {
			t.Fatalf("OutIndex(%d→%d) broken", v, cw)
		}
		if i, ok := g.InIndex(ccw, v); !ok || g.Edge(g.In(v)[i]).From != ccw {
			t.Fatalf("InIndex(%d→%d) broken", ccw, v)
		}
	}
	if _, ok := g.EdgeIDOf(0, 2); ok {
		t.Error("EdgeIDOf(0,2) should not exist on a 5-ring")
	}
}

func TestTopologies(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		wantN      int
		wantM      int
		wantStrong bool
	}{
		{"uni ring 5", Ring(5), 5, 5, true},
		{"bi ring 4", BidirectionalRing(4), 4, 8, true},
		{"clique 4", Clique(4), 4, 12, true},
		{"star 5", Star(5), 5, 8, true},
		{"path 4", Path(4), 4, 6, true},
		{"torus 3x3", Torus(3, 3), 9, 36, true},
		{"hypercube 3", Hypercube(3), 8, 24, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", tt.g.N(), tt.wantN)
			}
			if tt.g.M() != tt.wantM {
				t.Errorf("M = %d, want %d", tt.g.M(), tt.wantM)
			}
			if tt.g.IsStronglyConnected() != tt.wantStrong {
				t.Errorf("IsStronglyConnected = %v, want %v", tt.g.IsStronglyConnected(), tt.wantStrong)
			}
		})
	}
}

// diameter returns max over sources of eccentricity, or -1 if g is not
// strongly connected.
func diameter(g *Graph) int {
	diam := -1
	for v := range g.N() {
		ecc := g.Eccentricity(NodeID(v))
		if ecc == -1 {
			return -1
		}
		diam = max(diam, ecc)
	}
	return diam
}

func TestRadiusDiameter(t *testing.T) {
	tests := []struct {
		name       string
		g          *Graph
		wantRadius int
		wantDiam   int
	}{
		{"uni ring 5", Ring(5), 4, 4},
		{"bi ring 6", BidirectionalRing(6), 3, 3},
		{"bi ring 7", BidirectionalRing(7), 3, 3},
		{"clique 4", Clique(4), 1, 1},
		{"star 5", Star(5), 1, 2},
		{"path 5", Path(5), 2, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if r := tt.g.Radius(); r != tt.wantRadius {
				t.Errorf("Radius = %d, want %d", r, tt.wantRadius)
			}
			if d := diameter(tt.g); d != tt.wantDiam {
				t.Errorf("Diameter = %d, want %d", d, tt.wantDiam)
			}
		})
	}
}

func TestRadiusNotStronglyConnected(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}})
	if r := g.Radius(); r != -1 {
		t.Errorf("Radius = %d, want -1 for non-strongly-connected graph", r)
	}
	if g.IsStronglyConnected() {
		t.Error("IsStronglyConnected = true, want false")
	}
}

func TestSpanningTrees(t *testing.T) {
	graphs := map[string]*Graph{
		"uni ring 6":  Ring(6),
		"bi ring 5":   BidirectionalRing(5),
		"clique 5":    Clique(5),
		"hypercube 3": Hypercube(3),
		"random": RandomStronglyConnected(12, 0.2,
			rand.New(rand.NewPCG(1, 2))),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			out, err := g.OutTree(0)
			if err != nil {
				t.Fatalf("OutTree: %v", err)
			}
			in, err := g.InTree(0)
			if err != nil {
				t.Fatalf("InTree: %v", err)
			}
			for v := 1; v < g.N(); v++ {
				// OutTree: edge Parent[v] → v must exist.
				if !g.HasEdge(out.Parent[v], NodeID(v)) {
					t.Errorf("OutTree: missing edge %d→%d", out.Parent[v], v)
				}
				// InTree: edge v → Parent[v] must exist.
				if !g.HasEdge(NodeID(v), in.Parent[v]) {
					t.Errorf("InTree: missing edge %d→%d", v, in.Parent[v])
				}
			}
			if out.Parent[0] != -1 || in.Parent[0] != -1 {
				t.Error("root parent should be -1")
			}
		})
	}
}

func TestSpanningTreeNotStrong(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}})
	if _, err := g.OutTree(0); err == nil {
		t.Error("OutTree should fail on disconnected graph")
	}
}

func TestMaxDegree(t *testing.T) {
	tests := []struct {
		g    *Graph
		want int
	}{
		{Ring(5), 2},
		{BidirectionalRing(5), 4},
		{Clique(5), 8},
		{Star(6), 10},
	}
	for _, tt := range tests {
		if got := tt.g.MaxDegree(); got != tt.want {
			t.Errorf("%v MaxDegree = %d, want %d", tt.g, got, tt.want)
		}
	}
}

// Property: random strongly connected graphs are strongly connected, have
// radius ≤ diameter ≤ n-1, and deterministic edge orders.
func TestRandomStronglyConnectedProperties(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := 2 + int(nRaw%10)
		p := float64(pRaw%100) / 100
		rng := rand.New(rand.NewPCG(seed, seed+1))
		g := RandomStronglyConnected(n, p, rng)
		if !g.IsStronglyConnected() {
			return false
		}
		r, d := g.Radius(), diameter(g)
		return r >= 1 && r <= d && d <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: In and Out partition the edge set consistently.
func TestInOutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		g := RandomStronglyConnected(3+int(seed%8), 0.3, rng)
		countIn, countOut := 0, 0
		for v := 0; v < g.N(); v++ {
			countIn += g.InDegree(NodeID(v))
			countOut += g.OutDegree(NodeID(v))
			for _, id := range g.In(NodeID(v)) {
				if g.Edge(id).To != NodeID(v) {
					return false
				}
			}
			for _, id := range g.Out(NodeID(v)) {
				if g.Edge(id).From != NodeID(v) {
					return false
				}
			}
		}
		return countIn == g.M() && countOut == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistances(t *testing.T) {
	g := Ring(5)
	d := g.Distances(0)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestHypercubeStructure(t *testing.T) {
	g := Hypercube(4)
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(NodeID(v)) != 4 || g.InDegree(NodeID(v)) != 4 {
			t.Fatalf("node %d degree wrong", v)
		}
		for _, id := range g.Out(NodeID(v)) {
			u := g.Edge(id).To
			diff := v ^ int(u)
			if diff&(diff-1) != 0 {
				t.Fatalf("edge %d→%d differs in more than one bit", v, u)
			}
		}
	}
}

func TestTorusDegrees(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.OutDegree(NodeID(v)) != 4 {
			t.Fatalf("torus node %d out-degree %d, want 4", v, g.OutDegree(NodeID(v)))
		}
	}
}
