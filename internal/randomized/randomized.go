// Package randomized explores the paper's §7 future-work item (4):
// randomized reaction functions. It extends the model with per-node
// seeded randomness (so runs remain reproducible) and demonstrates the
// classic payoff on an oriented anonymous ring: deterministic protocols
// whose reactions are identical up to orientation preserve rotational
// symmetry forever under synchronous schedules — they can never reach a
// rotationally asymmetric configuration such as a maximal independent
// set — while coin flips break symmetry within a few expected rounds.
//
// A negative finding surfaced by this package (and machine-checked in its
// tests): in a stateless network every observation a node makes of node w
// arrives with a time delay equal to the length of the label-forwarding
// chain that carried it, so Δtime ≡ Δhops (mod 2) for *every* observable.
// Consequently the global period-2 oscillation that alternates between
// "all candidates" and "no candidates" is indistinguishable, at every
// node and at every time, from a genuine fixed point: each node sees
// exactly the local views a stable maximal independent set would produce.
// Any reaction rule that makes true fixed points absorbing therefore also
// sustains the oscillation — randomized *absorbing* MIS is impossible
// with per-node-uniform labels on the synchronous ring, echoing the
// paper's reliance on odd-ring parity tricks (Claim 5.5) and on
// non-uniform reaction functions for its own ring constructions. What
// randomization does buy, and what the tests verify, is symmetry
// breaking: the deterministic dynamics are confined to rotation-invariant
// configurations forever, while coin flips escape them immediately.
//
// Runner keeps its own step loop because internal/des runs deterministic
// reactions only: a randomized node flips a coin per reaction.
package randomized

import (
	"errors"
	"math/rand/v2"

	"stateless/internal/core"
	"stateless/internal/graph"
)

// Reaction is a randomized reaction function: like core.Reaction but with
// access to the node's private random stream. A deterministic reaction is
// the special case that ignores rng.
type Reaction func(in []core.Label, input core.Bit, out []core.Label, rng *rand.Rand) core.Bit

// Protocol is a randomized stateless protocol: per-node reactions plus a
// base seed from which per-node streams are derived.
type Protocol struct {
	g         *graph.Graph
	space     core.LabelSpace
	reactions []Reaction
	seed      uint64
}

// New builds a protocol from per-node randomized reactions.
func New(g *graph.Graph, space core.LabelSpace, seed uint64, reactions []Reaction) (*Protocol, error) {
	if g == nil {
		return nil, errors.New("randomized: nil graph")
	}
	if space.Size() == 0 {
		return nil, errors.New("randomized: empty label space")
	}
	if len(reactions) != g.N() {
		return nil, errors.New("randomized: need one reaction per node")
	}
	for _, r := range reactions {
		if r == nil {
			return nil, errors.New("randomized: nil reaction")
		}
	}
	return &Protocol{g: g, space: space, reactions: reactions, seed: seed}, nil
}

// Graph returns the protocol's graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Runner executes a randomized protocol; it owns the per-node random
// streams, so two Runners with equal seeds replay identically.
type Runner struct {
	p    *Protocol
	rngs []*rand.Rand
	cur  core.Config
	next core.Config
	x    core.Input
}

// NewRunner prepares a run from the given input and initial labeling.
func NewRunner(p *Protocol, x core.Input, l0 core.Labeling) (*Runner, error) {
	if len(x) != p.g.N() {
		return nil, errors.New("randomized: input length mismatch")
	}
	if len(l0) != p.g.M() {
		return nil, errors.New("randomized: labeling length mismatch")
	}
	r := &Runner{
		p:    p,
		x:    x,
		cur:  core.NewConfig(p.g, l0),
		next: core.Config{Labels: make(core.Labeling, p.g.M()), Outputs: make([]core.Bit, p.g.N())},
	}
	for v := 0; v < p.g.N(); v++ {
		r.rngs = append(r.rngs, rand.New(rand.NewPCG(p.seed, uint64(v)+0x9e37)))
	}
	return r, nil
}

// Step activates the given nodes against the pre-step labeling.
func (r *Runner) Step(active []graph.NodeID) {
	g := r.p.g
	copy(r.next.Labels, r.cur.Labels)
	copy(r.next.Outputs, r.cur.Outputs)
	for _, v := range active {
		in := make([]core.Label, g.InDegree(v))
		out := make([]core.Label, g.OutDegree(v))
		for i, id := range g.In(v) {
			in[i] = r.cur.Labels[id]
		}
		y := r.p.reactions[v](in, r.x[v], out, r.rngs[v])
		for i, id := range g.Out(v) {
			r.next.Labels[id] = out[i]
		}
		r.next.Outputs[v] = y
	}
	r.cur, r.next = r.next, r.cur
}

// Labels returns a copy of the current labeling.
func (r *Runner) Labels() core.Labeling { return r.cur.Labels.Clone() }

// --- Anonymous-ring symmetry breaking -----------------------------------

// misLabel packs (candidate bit c, echo e, double echo e2): every node
// emits the same triple on both ring directions. The echo field carries
// the counterclockwise neighbor's candidate bit onward, so a node's own
// candidacy comes back to it two steps later in its clockwise neighbor's
// echo — memory from communication again. The double echo forwards the
// neighbor's echo one more hop, letting a node compare its
// counterclockwise neighbor's candidacy at times t−1 and t−3: any
// disagreement ("flicker") proves the system is still in a transient, and
// *only then* do the coins fire. At a genuine fixed point all echoes are
// consistent, no flicker is seen, and the reaction is deterministic — so
// maximal independent sets are absorbing.
func misLabel(c, e, e2 core.Bit) core.Label {
	return core.Label(c) | core.Label(e)<<1 | core.Label(e2)<<2
}

func misUnpack(l core.Label) (c, e, e2 core.Bit) {
	return core.Bit(l & 1), core.Bit((l >> 1) & 1), core.Bit((l >> 2) & 1)
}

// MISRing returns a randomized candidate-thinning protocol on the oriented
// bidirectional n-ring: a candidate stays iff no neighbor is a candidate;
// adjacent candidates each drop with probability coinProb; an uncovered
// non-candidate volunteers with probability coinProb; nodes that detect
// their counterclockwise neighbor flickering randomize.
//
// Per the package comment, no such protocol can make maximal independent
// sets absorbing (the period-2 all/none oscillation is observationally
// identical to a fixed point), so the deliverable here is symmetry
// breaking: with coinProb = 1 the reactions are deterministic and, from
// any rotationally symmetric initial labeling, the synchronous
// configuration stays rotationally symmetric forever — in particular it
// is never a MIS; with 0 < coinProb < 1 the symmetric subspace is escaped
// within a few expected rounds. The tests verify both facts.
func MISRing(n int, seed uint64, coinProb float64) (*Protocol, error) {
	if n < 3 {
		return nil, errors.New("randomized: need n ≥ 3")
	}
	g := graph.BidirectionalRing(n)
	space := core.MustLabelSpace(8)
	reactions := make([]Reaction, n)
	for v := 0; v < n; v++ {
		ccwIdx, cwIdx, err := ringInIndices(g, v)
		if err != nil {
			return nil, err
		}
		reactions[v] = func(in []core.Label, _ core.Bit, out []core.Label, rng *rand.Rand) core.Bit {
			// Oriented ring: the reaction is the same at every node up to
			// orientation, preserving the rotation-equivariance that makes
			// the deterministic variant provably symmetric forever.
			ccwC, _, _ := misUnpack(in[ccwIdx])
			cwC, cwE, cwE2 := misUnpack(in[cwIdx])
			myOld := cwE   // c_v(t-2), via the clockwise echo
			ccwOld := cwE2 // c_{v-1}(t-3), via the double echo
			flicker := ccwC != ccwOld
			neighborCandidate := ccwC == 1 || cwC == 1

			coin := func() bool { return rng.Float64() < coinProb }
			var c core.Bit
			switch {
			case flicker:
				// Transient detected: randomize, biased toward silence so
				// calm regions can grow (an unbiased coin would keep
				// re-seeding the very flicker it is meant to quench). Two
				// coinProb-coins keep the coinProb = 1 variant fully
				// deterministic.
				c = core.BitOf(coin() && coin())
			case myOld == 1 && !neighborCandidate:
				c = 1 // established candidate, uncontested: keep
			case myOld == 1 && neighborCandidate:
				if coin() {
					c = 0 // contested: drop with probability coinProb
				} else {
					c = 1
				}
			case myOld == 0 && neighborCandidate:
				c = 0 // covered: stay out
			default:
				if coin() {
					c = 1 // uncovered: volunteer with probability coinProb
				}
			}
			l := misLabel(c, ccwC, core.Bit(in[ccwIdx]>>1&1))
			for i := range out {
				out[i] = l
			}
			return c
		}
	}
	return New(g, space, seed, reactions)
}

// ringInIndices mirrors counter.RingInIndices without the import cycle
// risk: positions of the ccw and cw incoming edges in canonical In order.
func ringInIndices(g *graph.Graph, j int) (ccwIdx, cwIdx int, err error) {
	n := g.N()
	v := graph.NodeID(j)
	ccw := graph.NodeID((j - 1 + n) % n)
	cw := graph.NodeID((j + 1) % n)
	ci, ok := g.InIndex(ccw, v)
	if !ok {
		return 0, 0, errors.New("randomized: not a bidirectional ring")
	}
	wi, ok := g.InIndex(cw, v)
	if !ok {
		return 0, 0, errors.New("randomized: not a bidirectional ring")
	}
	return ci, wi, nil
}

// RotationallySymmetric reports whether every node emits the same label —
// the invariant deterministic uniform protocols preserve on anonymous
// rings from uniform initial labelings.
func RotationallySymmetric(g *graph.Graph, l core.Labeling) bool {
	first := l[g.Out(0)[0]]
	for v := 0; v < g.N(); v++ {
		for _, id := range g.Out(graph.NodeID(v)) {
			if l[id] != first {
				return false
			}
		}
	}
	return true
}
