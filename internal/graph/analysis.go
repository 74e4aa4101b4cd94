package graph

import "errors"

// ErrNotStronglyConnected is returned by analyses that require strong
// connectivity (e.g. spanning in/out trees rooted at a node).
var ErrNotStronglyConnected = errors.New("graph: not strongly connected")

// bfsDist returns d[v] = length of the shortest directed path from src to v,
// or -1 if unreachable. If reverse is true, distances are measured along
// reversed edges (i.e. from v to src in the original graph).
func (g *Graph) bfsDist(src NodeID, reverse bool) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ids, ends := g.Out(v), g.heads
		if reverse {
			ids, ends = g.In(v), g.tails
		}
		for _, id := range ids {
			u := NodeID(ends[id])
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Distances returns shortest directed path lengths from src to every node
// (-1 when unreachable).
func (g *Graph) Distances(src NodeID) []int { return g.bfsDist(src, false) }

// IsStronglyConnected reports whether every node can reach every other node.
func (g *Graph) IsStronglyConnected() bool {
	fwd := g.bfsDist(0, false)
	bwd := g.bfsDist(0, true)
	for v := 0; v < g.n; v++ {
		if fwd[v] == -1 || bwd[v] == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns max_v dist(src, v), or -1 if some node is
// unreachable from src.
func (g *Graph) Eccentricity(src NodeID) int {
	dist := g.bfsDist(src, false)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Radius returns min over sources of eccentricity — the r of Proposition
// 2.1 (a lower bound on the round complexity of any output-stabilizing
// protocol computing a non-constant function). Returns -1 if the graph is
// not strongly connected.
func (g *Graph) Radius() int {
	radius := -1
	for v := 0; v < g.n; v++ {
		ecc := g.Eccentricity(NodeID(v))
		if ecc == -1 {
			return -1
		}
		if radius == -1 || ecc < radius {
			radius = ecc
		}
	}
	return radius
}

// Tree is a BFS spanning tree rooted at Root. Parent[Root] == -1. For an
// OutTree, Parent[v] is v's predecessor on a directed root→v path; for an
// InTree (tree of directed paths v→root), Parent[v] is v's successor on a
// directed v→root path.
type Tree struct {
	Root     NodeID
	Parent   []NodeID
	Children [][]NodeID
	Depth    []int
}

func (g *Graph) spanningTree(root NodeID, reverse bool) (*Tree, error) {
	t := &Tree{
		Root:     root,
		Parent:   make([]NodeID, g.n),
		Children: make([][]NodeID, g.n),
		Depth:    make([]int, g.n),
	}
	visited := make([]bool, g.n)
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	visited[root] = true
	t.Depth[root] = 0
	queue := []NodeID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ids, ends := g.Out(v), g.heads
		if reverse {
			ids, ends = g.In(v), g.tails
		}
		for _, id := range ids {
			u := NodeID(ends[id])
			if !visited[u] {
				visited[u] = true
				t.Parent[u] = v
				t.Children[v] = append(t.Children[v], u)
				t.Depth[u] = t.Depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	for _, ok := range visited {
		if !ok {
			return nil, ErrNotStronglyConnected
		}
	}
	return t, nil
}

// OutTree returns a BFS spanning tree of directed paths root→v (the T1 of
// Proposition 2.3, used to broadcast the function value).
func (g *Graph) OutTree(root NodeID) (*Tree, error) { return g.spanningTree(root, false) }

// InTree returns a BFS spanning tree of directed paths v→root (the T2 of
// Proposition 2.3, used to aggregate inputs toward the root). Parent[v] is
// the next hop from v toward the root along a directed edge v→Parent[v].
func (g *Graph) InTree(root NodeID) (*Tree, error) { return g.spanningTree(root, true) }
