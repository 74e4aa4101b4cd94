package verify

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/protocols"
)

// oracleEdge is one states-graph transition re-derived from the model.
type oracleEdge struct {
	dst     int32    // successor (oracle state index)
	changed bool     // compared section differs from the raw successor
	raw     []uint64 // packed raw (pre-canonical) successor
}

// oracle is the explored states-graph re-derived straight from the model,
// without the expander, the edge log, or Tarjan: every state is stepped
// with core.Step under each admissible activation set T ⊇ {i : x_i = 1}
// (T ≠ ∅), packed, and canonicalized; states are grouped into classes of
// mutual reachability by brute force.
type oracle struct {
	index     map[string]int32 // packed state → oracle state index
	succ      [][]oracleEdge
	class     []int32        // mutual-reachability class per state
	violating map[int32]bool // classes with an internal section change
	witness   *Witness
}

func stateKey(words []uint64) string { return fmt.Sprint(words) }

// newOracle builds the oracle over the state set of an explored, compacted
// run, checking that the set is closed under the transition relation.
func newOracle(t *testing.T, e *explorer, total int) *oracle {
	t.Helper()
	o := &oracle{index: map[string]int32{}, succ: make([][]oracleEdge, total)}
	states := make([][]uint64, total)
	for v := int32(0); v < int32(total); v++ {
		states[v] = append([]uint64(nil), e.store.WordsAt(v, nil)...)
		o.index[stateKey(states[v])] = v
	}
	g := e.p.Graph()
	n, m := g.N(), g.M()
	var canon *explore.Canon
	if e.sym != nil {
		canon = e.sym.NewCanon()
	}
	cur := core.Config{Labels: make(core.Labeling, m), Outputs: make([]core.Bit, n)}
	next := core.Config{Labels: make(core.Labeling, m), Outputs: make([]core.Bit, n)}
	cdNext := make([]uint8, n)
	for v, words := range states {
		cur.Labels = e.codec.UnpackLabels(words, cur.Labels)
		cd := e.codec.UnpackCountdown(words, nil)
		if e.trackOutputs {
			cur.Outputs = e.codec.UnpackOutputs(words, cur.Outputs)
		}
		for set := 1; set < 1<<n; set++ {
			var active []graph.NodeID
			admissible := true
			for i := 0; i < n; i++ {
				on := set&(1<<i) != 0
				if cd[i] == 1 && !on {
					admissible = false
				}
				if on {
					active = append(active, graph.NodeID(i))
					cdNext[i] = uint8(e.r)
				} else {
					cdNext[i] = cd[i] - 1
				}
			}
			if !admissible {
				continue
			}
			core.Step(e.p, e.x, cur, &next, active)
			changed := !next.Labels.Equal(cur.Labels)
			if e.trackOutputs {
				changed = !reflect.DeepEqual(next.Outputs, cur.Outputs)
			}
			raw := e.codec.Pack(next.Labels, cdNext, next.Outputs, nil)
			key := append([]uint64(nil), raw...)
			if canon != nil {
				key = canon.Canonicalize(key)
			}
			dst, ok := o.index[stateKey(key)]
			if !ok {
				t.Fatalf("state %v: successor %v missing from the explored set", words, key)
			}
			o.succ[v] = append(o.succ[v], oracleEdge{dst, changed, raw})
		}
	}
	o.class = mutualReach(o.succ)

	// Violating classes and the canonically smallest internal
	// section-changing transition (the witness order).
	compare := e.codec.CompareLabels
	if e.trackOutputs {
		compare = e.codec.CompareOutputs
	}
	o.violating = map[int32]bool{}
	var bestA, bestB []uint64
	for v, es := range o.succ {
		for _, ed := range es {
			if !ed.changed || o.class[ed.dst] != o.class[v] {
				continue
			}
			o.violating[o.class[v]] = true
			a, b := states[v], ed.raw
			if compare(b, a) < 0 {
				a, b = b, a
			}
			if bestA == nil || less2(compare, a, b, bestA, bestB) {
				bestA, bestB = a, b
			}
		}
	}
	if bestA != nil {
		o.witness = &Witness{}
		if e.trackOutputs {
			o.witness.Outputs = [2][]core.Bit{e.codec.UnpackOutputs(bestA, nil), e.codec.UnpackOutputs(bestB, nil)}
		} else {
			o.witness.Labelings = [2]core.Labeling{e.codec.UnpackLabels(bestA, nil), e.codec.UnpackLabels(bestB, nil)}
		}
	}
	return o
}

// mutualReach partitions the states into classes of mutual reachability by
// brute force: for each unclassified state, intersect its forward and
// backward reachable sets.
func mutualReach(succ [][]oracleEdge) []int32 {
	total := len(succ)
	fwd := make([][]int32, total)
	bwd := make([][]int32, total)
	for v, es := range succ {
		for _, ed := range es {
			fwd[v] = append(fwd[v], ed.dst)
			bwd[ed.dst] = append(bwd[ed.dst], int32(v))
		}
	}
	reach := func(from int32, adj [][]int32) []bool {
		seen := make([]bool, total)
		seen[from] = true
		queue := []int32{from}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		return seen
	}
	class := make([]int32, total)
	for i := range class {
		class[i] = -1
	}
	nClass := int32(0)
	for v := int32(0); v < int32(total); v++ {
		if class[v] >= 0 {
			continue
		}
		f, b := reach(v, fwd), reach(v, bwd)
		for u := range f {
			if f[u] && b[u] {
				class[u] = nClass
			}
		}
		nClass++
	}
	return class
}

// analysis is one exact check run through the row-based analysis, with
// every intermediate the oracle compares against.
type analysis struct {
	e         *explorer
	total     int
	rows      [][]int32
	comp      []int32
	violating []bool
	witness   *Witness
}

func analyze(t *testing.T, p *core.Protocol, x core.Input, r int, outputs bool, opts Options) analysis {
	t.Helper()
	e, err := newExplorer(p, x, r, outputs, opts, DefaultLimit)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.explore(); err != nil {
		t.Fatal(err)
	}
	a := analysis{e: e, total: e.store.Compact()}
	a.rows = make([][]int32, a.total)
	e.rankRows(a.rows)
	comp, nComps, changedInside := sccs(a.rows)
	violating, nViolating := violatingSCCs(a.rows, comp, nComps)
	if changedInside != (nViolating > 0) {
		t.Fatalf("sccs reports a changed internal edge: %v, but %d violating SCCs", changedInside, nViolating)
	}
	a.comp, a.violating = comp, violating
	if nViolating > 0 {
		if a.witness, err = e.witness(a.total, comp, violating); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// check compares one run's row-based analysis with the oracle: the same
// state set, identical rows (as edge multisets, flags included), the same
// SCC partition and violating set, and the same witness.
func (o *oracle) check(t *testing.T, label string, a analysis) {
	t.Helper()
	if a.total != len(o.succ) {
		t.Fatalf("%s: %d states, oracle %d", label, a.total, len(o.succ))
	}
	toOracle := make([]int32, a.total)
	for v := int32(0); v < int32(a.total); v++ {
		idx, ok := o.index[stateKey(a.e.store.WordsAt(v, nil))]
		if !ok {
			t.Fatalf("%s: state rank %d is not in the oracle's state set", label, v)
		}
		toOracle[v] = idx
	}
	toComp := map[int32]int32{}
	toClass := map[int32]int32{}
	for v, row := range a.rows {
		ov := toOracle[v]
		got := make([]int32, len(row))
		for i, d := range row {
			got[i] = d&edgeChanged | toOracle[d&edgeDst]
		}
		want := make([]int32, len(o.succ[ov]))
		for i, ed := range o.succ[ov] {
			want[i] = ed.dst
			if ed.changed {
				want[i] |= edgeChanged
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: state rank %d: row %v, oracle edges %v", label, v, got, want)
		}
		// Same partition: the class↔component map is a bijection.
		cls, cc := o.class[ov], a.comp[v]
		if c, ok := toComp[cls]; ok && c != cc {
			t.Fatalf("%s: mutually reachable states split across SCCs %d and %d", label, c, cc)
		}
		if c, ok := toClass[cc]; ok && c != cls {
			t.Fatalf("%s: SCC %d merges states that are not mutually reachable", label, cc)
		}
		toComp[cls], toClass[cc] = cc, cls
		if a.violating[cc] != o.violating[cls] {
			t.Fatalf("%s: SCC %d violating=%v, oracle %v", label, cc, a.violating[cc], o.violating[cls])
		}
	}
	if !reflect.DeepEqual(a.witness, o.witness) {
		t.Fatalf("%s: witness %+v, oracle %+v", label, a.witness, o.witness)
	}
}

// TestRowAnalysisMatchesOracle pins the row-based analysis (the edge log
// ranked in place and read as the CSR) against an independent oracle —
// the states-graph re-derived with core.Step and partitioned by brute-force
// mutual reachability — on every store × symmetry × workers setting, at the production chunk size and at a 16-entry chunk that
// forces runs to start new chunks and long runs into dedicated ones. The
// public check must reach the same verdict, state count and witness.
func TestRowAnalysisMatchesOracle(t *testing.T) {
	must := func(p *core.Protocol, err error) *core.Protocol {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	both := []StoreKind{StoreDense, StoreHash}
	cases := []struct {
		name    string
		p       *core.Protocol
		outputs bool
		stores  []StoreKind
		syms    []SymmetryMode
	}{
		{"saturating-ring4", must(protocols.SaturatingRing(4, 2)), false, both, nil},
		{"copy-ring4", must(protocols.CopyRing(4, 2)), false, both, nil},
		{"flip-cube2", must(protocols.FlipNet(graph.Hypercube(2))), false, both, nil},
		// Unquotiented, cube3 has 12,916 states: too many for the quadratic
		// oracle, so only the 48-fold quotient runs here.
		{"flip-cube3", must(protocols.FlipNet(graph.Hypercube(3))), false,
			[]StoreKind{StoreHash}, []SymmetryMode{SymmetryOn}},
		// The clique has no nontrivial order-preserving automorphism, so the
		// quotient does not apply to Example 1.
		{"example1-3", must(protocols.Example1Clique(3)), false, both, []SymmetryMode{SymmetryOff}},
		{"example1-3/output", must(protocols.Example1Clique(3)), true, both, []SymmetryMode{SymmetryOff}},
	}
	defaultChunk := edgeChunk
	defer func() { edgeChunk = defaultChunk }()
	dedicated := false
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := make(core.Input, tc.p.Graph().N())
			syms := tc.syms
			if syms == nil {
				syms = []SymmetryMode{SymmetryOff, SymmetryOn}
			}
			oracles := map[SymmetryMode]*oracle{}
			multiChunk := false
			for _, chunk := range []int{defaultChunk, 16} {
				edgeChunk = chunk
				for _, st := range tc.stores {
					for _, sy := range syms {
						for _, w := range []int{1, 2, 4} {
							opts := Options{Workers: w, Store: st, Symmetry: sy}
							label := fmt.Sprintf("chunk=%d store=%d sym=%d workers=%d", chunk, st, sy, w)
							a := analyze(t, tc.p, x, 2, tc.outputs, opts)
							for _, ex := range a.e.expanders {
								if ex == nil {
									continue
								}
								multiChunk = multiChunk || len(ex.log) >= 2
								for _, c := range ex.log {
									dedicated = dedicated || cap(c) > edgeChunk
								}
							}
							o := oracles[sy]
							if o == nil {
								o = newOracle(t, a.e, a.total)
								oracles[sy] = o
							}
							o.check(t, label, a)
							dec, err := stabilization(tc.p, x, 2, tc.outputs, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if dec.Stabilizing != (o.witness == nil) || dec.States != a.total ||
								!reflect.DeepEqual(dec.Witness, o.witness) {
								t.Fatalf("%s: decision %+v disagrees with the oracle (states %d, witness %+v)",
									label, dec, a.total, o.witness)
							}
						}
					}
				}
			}
			if !multiChunk {
				t.Fatal("no run spread a worker's edge log over two chunks")
			}
		})
	}
	if !dedicated {
		t.Fatal("no run gave a run longer than a chunk its own chunk")
	}
}

// TestEdgeLogBudget pins the exact path's graph footprint on
// SaturatingRing(6, 3), r = 3 (32,202 states, 750,654 edges). The edge log
// may hold 4 bytes per edge plus at most 16 bytes of row bookkeeping per
// state, plus one partly filled chunk per worker; the analysis that ranks
// it in place and runs Tarjan over it must allocate less than one more
// 4-byte word per edge. A wider edge entry, or a second per-edge copy in
// the log or the analysis, fails the test.
func TestEdgeLogBudget(t *testing.T) {
	const wantStates, wantEdges = 32202, 750654
	p, err := protocols.SaturatingRing(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := make(core.Input, p.Graph().N())
	for _, st := range []StoreKind{StoreDense, StoreHash} {
		for _, w := range []int{1, 2} {
			e, err := newExplorer(p, x, 3, false, Options{Workers: w, Store: st, Symmetry: SymmetryOff}, DefaultLimit)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.explore(); err != nil {
				t.Fatal(err)
			}
			states, edges, logBytes := e.store.Len(), 0, 0
			for _, ex := range e.expanders {
				if len(ex.log) < 2 {
					t.Fatalf("store=%d workers=%d: a worker's log has %d chunks, want ≥ 2", st, w, len(ex.log))
				}
				for _, c := range ex.log {
					logBytes += 4 * cap(c)
					for at := 0; at < len(c); at += rowHeader + int(c[at+1]) {
						edges += int(c[at+1])
					}
				}
			}
			if states != wantStates || edges != wantEdges {
				t.Fatalf("store=%d workers=%d: %d states, %d edges; want %d, %d", st, w, states, edges, wantStates, wantEdges)
			}
			budget := 4*edges + 16*states + w*4*edgeChunk
			if logBytes > budget {
				t.Fatalf("store=%d workers=%d: edge log holds %d bytes, budget %d", st, w, logBytes, budget)
			}

			total := e.store.Compact()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rows := make([][]int32, total)
			e.rankRows(rows)
			comp, nComps, changedInside := sccs(rows)
			if _, n := violatingSCCs(rows, comp, nComps); n != 0 || changedInside {
				t.Fatalf("store=%d workers=%d: %d violating SCCs (sccs flag %v) on a stabilizing ring", st, w, n, changedInside)
			}
			runtime.ReadMemStats(&after)
			if alloc := int(after.TotalAlloc - before.TotalAlloc); alloc >= 4*edges {
				t.Fatalf("store=%d workers=%d: analysis allocated %d bytes, ≥ one word per edge (%d)", st, w, alloc, 4*edges)
			}
			t.Logf("store=%d workers=%d: log %d B (budget %d), analysis %d B",
				st, w, logBytes, budget, after.TotalAlloc-before.TotalAlloc)
		}
	}
}
