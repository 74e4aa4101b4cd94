package verify

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/protocols"
)

// Edge kinds of a depth-first search that visits starts in ascending order
// and each row in order, as sccs does.
const (
	kindSelfLoop = iota
	kindTree
	kindBack
	kindForward
	kindCross
	nKinds
)

var kindNames = [nKinds]string{"self-loop", "tree", "back", "forward", "cross"}

// classifyEdges labels every row entry with its DFS edge kind.
func classifyEdges(rows [][]int32) [][]int {
	const unvisited, open, done = 0, 1, 2
	state := make([]int, len(rows))
	kinds := make([][]int, len(rows))
	pre := make([]int, len(rows))
	counter := 0
	var dfs func(v int32)
	dfs = func(v int32) {
		state[v], pre[v] = open, counter
		counter++
		kinds[v] = make([]int, len(rows[v]))
		for i, d := range rows[v] {
			u := entryDst(d)
			switch {
			case u == v:
				kinds[v][i] = kindSelfLoop
			case state[u] == unvisited:
				kinds[v][i] = kindTree
				dfs(u)
			case state[u] == open:
				kinds[v][i] = kindBack
			case pre[u] > pre[v]:
				kinds[v][i] = kindForward
			default:
				kinds[v][i] = kindCross
			}
		}
		state[v] = done
	}
	for v := range rows {
		if state[v] == unvisited {
			dfs(int32(v))
		}
	}
	return kinds
}

// TestSCCChangedInsideFlag pins the verdict sccs decides inside Tarjan
// against brute-force mutual reachability on seeded random digraphs with
// repeated edges. Each edge is planted as the only changed edge in turn,
// so every DFS edge kind carries the flag alone: self-loops, tree edges
// into the still-open component of their source and tree edges to a new
// root, back edges, forward edges, and cross edges into open and into
// completed components. Random sets of changed edges and the unchanged
// graph are checked too, as is sccs's partition.
func TestSCCChangedInsideFlag(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	// seen[kind][inside]: planted edges of that kind with that verdict.
	var seen [nKinds][2]int
	for g := 0; g < 300; g++ {
		n := 1 + rng.IntN(24)
		rows := make([][]int32, n)
		for v := range rows {
			for d := rng.IntN(4); d > 0; d-- {
				rows[v] = append(rows[v], int32(rng.IntN(n)))
			}
		}
		succ := make([][]oracleEdge, n)
		for v, row := range rows {
			for _, d := range row {
				succ[v] = append(succ[v], oracleEdge{dst: d})
			}
		}
		class := mutualReach(succ)
		kinds := classifyEdges(rows)
		flag := func() bool {
			comp, nComps, inside := sccs(rows)
			for a := range rows {
				for b := range rows {
					if (class[a] == class[b]) != (comp[a] == comp[b]) {
						t.Fatalf("graph %d %v: states %d and %d: classes %d and %d, sccs components %d and %d",
							g, rows, a, b, class[a], class[b], comp[a], comp[b])
					}
				}
			}
			if _, nViolating := violatingSCCs(rows, comp, nComps); inside != (nViolating > 0) {
				t.Fatalf("graph %d %v: sccs flag %v, violatingSCCs found %d", g, rows, inside, nViolating)
			}
			return inside
		}
		if flag() {
			t.Fatalf("graph %d %v: flag set with no changed edge", g, rows)
		}
		for v, row := range rows {
			for i, d := range row {
				row[i] = d | edgeChanged
				want := class[v] == class[entryDst(d)]
				if got := flag(); got != want {
					t.Fatalf("graph %d %v: only %s edge %d→%d (entry %d) changed: flag %v, want %v",
						g, rows, kindNames[kinds[v][i]], v, entryDst(d), i, got, want)
				}
				row[i] = d
				if want {
					seen[kinds[v][i]][1]++
				} else {
					seen[kinds[v][i]][0]++
				}
			}
		}
		want := false
		for v, row := range rows {
			for i, d := range row {
				if rng.IntN(4) == 0 {
					row[i] = d | edgeChanged
					want = want || class[v] == class[entryDst(d)]
				}
			}
		}
		if got := flag(); got != want {
			t.Fatalf("graph %d %v: random changed set: flag %v, want %v", g, rows, got, want)
		}
	}
	// Self-loops and back edges always stay inside; every other kind must
	// have been planted both inside a component and leaving one.
	for k := range seen {
		if seen[k][1] == 0 || (k != kindSelfLoop && k != kindBack && seen[k][0] == 0) {
			t.Fatalf("%s edges planted: %d leaving a component, %d inside one", kindNames[k], seen[k][0], seen[k][1])
		}
	}
}

// BenchmarkSCC times sccs over the ranked rows of SaturatingRing(6, 3) at
// r = 3 (32,202 states, 750,654 edges; sequential exploration on the hash
// store, symmetry off). succ/s counts edges examined per second.
// scripts/bench.sh records it under "micro" in BENCH_verify.json.
func BenchmarkSCC(b *testing.B) {
	p, err := protocols.SaturatingRing(6, 3)
	if err != nil {
		b.Fatal(err)
	}
	e, err := newExplorer(p, make(core.Input, p.Graph().N()), 3, false,
		Options{Workers: 1, Store: StoreHash, Symmetry: SymmetryOff}, DefaultLimit)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.explore(); err != nil {
		b.Fatal(err)
	}
	rows := make([][]int32, e.store.Compact())
	e.rankRows(rows)
	edges := 0
	for _, row := range rows {
		edges += len(row)
	}
	b.Run("saturating-6-3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, inside := sccs(rows); inside {
				b.Fatal("a changed edge inside an SCC of a stabilizing ring")
			}
		}
		b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "succ/s")
	})
}
