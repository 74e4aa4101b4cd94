package verify

import (
	"errors"
	"fmt"
	"time"

	"stateless/internal/core"
	"stateless/internal/explore"
)

// stabilization runs the full check: explore, SCC-decompose, and decide.
//
// Violation criterion: the protocol fails to stabilize iff some transition
// *inside* an SCC changes the compared section (labels or outputs) between
// its source state and its raw successor. Without quotienting this is
// equivalent to the classic "two distinct sections inside a cycle-bearing
// SCC" (an SCC whose internal transitions all preserve the section is
// section-constant, and conversely two distinct sections in an SCC are
// joined by internal transitions, one of which must change the section).
// Under symmetry quotienting it remains exact where the classic check
// breaks: a run that endlessly *rotates* a labeling around the ring maps
// to a quotient self-loop on one canonical state, which state-pair
// comparison would miss, but the raw successor of that canonical state
// differs from it in the label section, so the edge is flagged. Lifting a
// flagged quotient edge back to the full states-graph always yields a real
// cycle through two section-distinct states (automorphisms have finite
// order), and conversely a section-constant quotient SCC lifts only to
// section-constant SCCs, so the verdict is identical with and without the
// quotient.
func stabilization(p *core.Protocol, x core.Input, r int, trackOutputs bool, opts Options) (Decision, error) {
	if r < 1 {
		return Decision{}, errors.New("verify: r must be ≥ 1")
	}
	if r > 255 {
		// Countdowns are stored as uint8; larger r would silently wrap.
		return Decision{}, errors.New("verify: r must be ≤ 255")
	}
	if err := checkInput(p, x); err != nil {
		return Decision{}, err
	}
	limit := opts.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if limit > 1<<30 {
		limit = 1 << 30 // packed state IDs are int32
	}
	g := p.Graph()
	// Symmetric protocols seed from per-node labelings (see explorer.seed),
	// so the enumeration guard uses exponent n instead of m.
	seedExp := g.M()
	if p.Symmetric() {
		seedExp = g.N()
	}
	if tooMany(p.Space().Size(), seedExp, limit) {
		return Decision{}, fmt.Errorf("%w: seed labeling space too large", ErrStateSpaceTooLarge)
	}
	e, err := newExplorer(p, x, r, trackOutputs, opts, limit)
	if err != nil {
		return Decision{}, err
	}
	if err := e.explore(); err != nil {
		e.flushStageClocks()
		if errors.Is(err, explore.ErrLimit) {
			return Decision{}, fmt.Errorf("%w: %v", ErrStateSpaceTooLarge, err)
		}
		if errors.Is(err, explore.ErrCanceled) {
			return Decision{}, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		return Decision{}, err
	}
	e.flushStageClocks()
	if e.store.Lossy() {
		return e.lossyDecision()
	}
	m := opts.Metrics
	total := e.store.Compact()
	// Analysis-phase timings are single measurements per run, so they use
	// plain wall clocks rather than the hot path's sampled stopwatches.
	t0 := time.Now()
	rows := make([][]int32, total)
	t1 := time.Now()
	e.rankRows(rows)
	t2 := time.Now()
	comp, nComps, changedInside := sccs(rows)
	t3 := time.Now()
	m.Gauge(MetricCSRNs).Set(int64(t1.Sub(t0)))
	m.Gauge(MetricRankNs).Set(int64(t2.Sub(t1)))
	m.Gauge(MetricSCCNs).Set(int64(t3.Sub(t2)))
	m.Gauge(MetricSCCs).Set(int64(nComps))
	// Tarjan has decided the verdict; on a stabilizing run the edge log is
	// not read again.
	var (
		violating  []bool
		nViolating int
	)
	if changedInside {
		violating, nViolating = violatingSCCs(rows, comp, nComps)
	}
	m.Gauge(MetricViolatingSCCs).Set(int64(nViolating))
	m.Gauge(MetricQuotient).Set(int64(e.sym.Order()))
	m.Gauge(MetricStates).Set(int64(total))
	dec := Decision{Stabilizing: nViolating == 0, States: total, Quotient: e.sym.Order(), Exact: true}
	if nViolating == 0 {
		return dec, nil
	}
	t4 := time.Now()
	w, err := e.witness(total, comp, violating)
	m.Gauge(MetricWitnessNs).Set(int64(time.Since(t4)))
	if err != nil {
		return Decision{}, err
	}
	dec.Witness = w
	return dec, nil
}

// rankRows ranks every worker's edge log in place (edgeLog.rank), so row v
// of the result aliases state v's run in the log. Ranking once up front
// means the SCC stage, the violating-SCC scan, and the witness pass index
// comp directly instead of paying a Store.Rank per edge visit (for the
// dense store that is a popcount plus two dependent loads — it dominated
// the analysis-phase profile).
func (e *explorer) rankRows(rows [][]int32) {
	var log edgeLog
	for _, ex := range e.expanders {
		if ex != nil {
			log = append(log, ex.log...)
		}
	}
	log.rank(e.store, rows, e.workers)
}

// sccs runs iterative Tarjan over the ranked rows (rankRows) and returns
// the component index of every state, the component count, and whether
// some section-changing edge lies inside a component — the verdict of the
// violation criterion (see stabilization), decided on the way from two
// Tarjan facts. An edge v→u examined while u is on the stack joins v's
// component (u's root is still an ancestor of v, so u reaches v); one to a
// visited u off the stack leaves it (u's component is complete). A tree
// edge p→v stays inside p's component exactly when v is not a root,
// i.e. low[v] != index[v] when v returns.
func sccs(rows [][]int32) ([]int32, int, bool) {
	const unvisited = -1
	nStates := len(rows)
	index := make([]int32, nStates)
	low := make([]int32, nStates)
	comp := make([]int32, nStates)
	onStack := make([]bool, nStates)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int32
		nComps  int
		counter int32
		// changed collects, in its edgeChanged bit, the entries of the
		// edges found inside a component.
		changed int32
	)
	// A frame's v carries, in its edgeChanged bit, the changed flag of the
	// tree edge that led to it (clear for a start state).
	type frame struct {
		v    int32
		next int32
	}
	for start := int32(0); start < int32(nStates); start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{start, 0}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			fv := entryDst(f.v)
			row := rows[fv]
			if int(f.next) < len(row) {
				d := row[f.next]
				u := entryDst(d)
				f.next++
				if index[u] == unvisited {
					index[u], low[u] = counter, counter
					counter++
					stack = append(stack, u)
					onStack[u] = true
					callStack = append(callStack, frame{d, 0})
				} else if onStack[u] {
					changed |= d
					if index[u] < low[fv] {
						low[fv] = index[u]
					}
				}
				continue
			}
			v, in := fv, f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := entryDst(callStack[len(callStack)-1].v)
				// low[v] < index[v] exactly when v is not a root: then the
				// tree edge p→v stays inside p's component.
				changed |= in & ((low[v] - index[v]) >> 31)
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = int32(nComps)
					if w == v {
						break
					}
				}
				nComps++
			}
		}
	}
	return comp, nComps, entryChanged(changed)
}

// violatingSCCs marks the components that contain an internal
// section-changing transition (see the violation criterion at
// stabilization) and counts them. It reads every edge again, so it runs
// only when sccs found such a transition, to feed the witness pass.
func violatingSCCs(rows [][]int32, comp []int32, nComps int) ([]bool, int) {
	violating := make([]bool, nComps)
	n := 0
	for v, row := range rows {
		cc := comp[v]
		if violating[cc] {
			continue
		}
		for _, d := range row {
			if entryChanged(d) && comp[entryDst(d)] == cc {
				violating[cc] = true
				n++
				break
			}
		}
	}
	return violating, n
}

// witness re-expands the states of every violating SCC and picks the
// canonically smallest section-changing internal transition: the pair
// (source section, raw-successor section), ordered within the pair and
// then globally by the packed-section order. The choice depends only on
// the explored state set, so it is identical across store backends and
// worker counts. Both endpoints are genuine reachable states of the full
// states-graph (canonical representatives are reachable because the seed
// set and the transition relation are closed under the automorphism
// group), and a section-changing internal transition always lies on a real
// cycle, so the pair witnesses a genuine oscillation.
func (e *explorer) witness(total int, comp []int32, violating []bool) (*Witness, error) {
	ex := e.newExpander()
	ex.keepRaw = true // Expand retains the pre-canonical block in ex.raw
	scratch := explore.NewBatch(e.codec.Words())
	wpk := e.codec.Words()
	var (
		stateBuf []uint64
		best     pair
	)
	for rank := int32(0); rank < int32(total); rank++ {
		if !violating[comp[rank]] {
			continue
		}
		state := e.store.WordsAt(rank, stateBuf)
		stateBuf = state // reuse the materialization buffer next round
		scratch.Reset()
		if err := ex.Expand(0, state, scratch); err != nil {
			return nil, err
		}
		for i := 0; i < scratch.Len(); i++ {
			if !ex.changed[i] {
				continue
			}
			raw := ex.raw[i*wpk : (i+1)*wpk]
			// scratch.Key(i) is the canonical successor, already interned
			// (same expansion as the exploration), so this lookup never
			// grows the store.
			id, _, err := e.store.Intern(scratch.Key(i))
			if err != nil {
				return nil, err
			}
			if comp[e.store.Rank(id)] != comp[rank] {
				continue // transition leaves the SCC
			}
			e.keepMin(&best, state, raw)
		}
	}
	if best.a == nil {
		return nil, errors.New("verify: internal error: violating SCC without a changing transition")
	}
	return e.newWitness(best), nil
}

// pair is a witness candidate: two packed states joined by a
// section-changing transition, ordered within the pair. a is nil while no
// candidate is held.
type pair struct{ a, b []uint64 }

// keepMin orders (src, dst) within itself and copies it into best when it
// precedes the pair held there, or none is held: the witness order, shared
// by the exact witness pass and the bitstate on-the-fly record.
func (e *explorer) keepMin(best *pair, src, dst []uint64) {
	a, b := src, dst
	if e.compare(b, a) < 0 {
		a, b = b, a
	}
	if best.a != nil && !less2(e.compare, a, b, best.a, best.b) {
		return
	}
	best.a = append(best.a[:0], a...)
	best.b = append(best.b[:0], b...)
}

// less2 orders witness candidate pairs lexicographically.
func less2(compare func(a, b []uint64) int, a1, b1, a2, b2 []uint64) bool {
	if c := compare(a1, a2); c != 0 {
		return c < 0
	}
	return compare(b1, b2) < 0
}

// newWitness unpacks the compared sections of p.
func (e *explorer) newWitness(p pair) *Witness {
	w := &Witness{}
	if e.trackOutputs {
		w.Outputs = [2][]core.Bit{e.codec.UnpackOutputs(p.a, nil), e.codec.UnpackOutputs(p.b, nil)}
	} else {
		w.Labelings = [2]core.Labeling{e.codec.UnpackLabels(p.a, nil), e.codec.UnpackLabels(p.b, nil)}
	}
	return w
}

// lossyDecision assembles the verdict of a bitstate run: the graph
// analysis of exact mode (rank → rows → SCC) never runs — the lossy store
// cannot reproduce states and no edge log exists — so the decision is
// either the on-the-fly violation (exact witness) or "no violation found".
// The schema-required verify gauges are still published, zeroed where the
// stage did not run, so bitstate reports validate against the same schema.
func (e *explorer) lossyDecision() (Decision, error) {
	m := e.opts.Metrics
	total := e.store.Len()
	m.Gauge(MetricRankNs).Set(0)
	m.Gauge(MetricCSRNs).Set(0)
	m.Gauge(MetricSCCNs).Set(0)
	m.Gauge(MetricWitnessNs).Set(0)
	m.Gauge(MetricSCCs).Set(0)
	m.Gauge(MetricQuotient).Set(int64(e.sym.Order()))
	m.Gauge(MetricStates).Set(int64(total))
	bs := e.store.(*explore.Bitstate)
	dec := Decision{
		States:     total,
		Quotient:   e.sym.Order(),
		BitstateK:  bs.K(),
		HashFactor: bs.HashFactor(),
	}
	e.vioMu.Lock()
	defer e.vioMu.Unlock()
	if e.vio.a == nil {
		m.Gauge(MetricViolatingSCCs).Set(0)
		dec.Stabilizing = true
		return dec, nil
	}
	m.Gauge(MetricViolatingSCCs).Set(1)
	dec.Exact = true // a concrete violation is exact even under a lossy store
	dec.Witness = e.newWitness(e.vio)
	return dec, nil
}
