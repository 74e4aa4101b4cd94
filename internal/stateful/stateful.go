// Package stateful implements the machinery behind Theorem 4.2
// (PSPACE-completeness of verifying label r-stabilization): stateful
// protocols on cliques whose reaction functions may read their own
// outgoing label, the String-Oscillation problem and its reduction to
// stateful stabilization (Theorem B.11), and the metanode construction
// that turns any stateful protocol on K_n into a stateless protocol on
// K_{3n} with identical stabilization behaviour (Theorem B.14).
//
// RunSynchronous keeps its own step loop because internal/des runs
// stateless reactions only: a stateful node reads its own label.
package stateful

import (
	"errors"
	"fmt"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
)

// Protocol is a stateful protocol on the clique K_n in which every node
// emits the same label to all neighbors, so a global configuration is a
// vector in Σ^n, and — the stateful relaxation — each reaction function
// reads the entire configuration including the node's own label.
type Protocol struct {
	N         int
	Size      uint64 // |Σ|
	Reactions []func(labels []core.Label) core.Label
}

// Validate checks structural well-formedness.
func (p *Protocol) Validate() error {
	if p.N < 1 || len(p.Reactions) != p.N {
		return errors.New("stateful: need one reaction per node")
	}
	if p.Size == 0 {
		return errors.New("stateful: empty label space")
	}
	for i, r := range p.Reactions {
		if r == nil {
			return fmt.Errorf("stateful: nil reaction at node %d", i)
		}
	}
	return nil
}

// Step applies the reactions of the activated nodes to the pre-step
// configuration cur, writing into next (which must not alias cur).
func (p *Protocol) Step(cur, next []core.Label, active []int) {
	copy(next, cur)
	for _, i := range active {
		next[i] = p.Reactions[i](cur)
	}
}

// IsStable reports whether the configuration is a fixed point of every
// reaction.
func (p *Protocol) IsStable(cfg []core.Label) bool {
	for i, r := range p.Reactions {
		if r(cfg) != cfg[i] {
			return false
		}
	}
	return true
}

// RunResult reports a synchronous run's outcome.
type RunResult struct {
	Stable   bool
	Steps    int
	CycleLen int // >0 when a non-fixed-point cycle was found
	Final    []core.Label
}

// RunSynchronous runs the protocol under the synchronous schedule with
// cycle detection.
func (p *Protocol) RunSynchronous(init []core.Label, maxSteps int) (RunResult, error) {
	if len(init) != p.N {
		return RunResult{}, errors.New("stateful: bad init length")
	}
	all := make([]int, p.N)
	for i := range all {
		all[i] = i
	}
	cur := append([]core.Label(nil), init...)
	next := make([]core.Label, p.N)
	// Packed-label cycle keys (internal/enc), like the stateless engines.
	// Packing is injective only for in-space labels, so reject stray init
	// values up front (reactions are contractually in-space).
	for i, l := range cur {
		if uint64(l) >= p.Size {
			return RunResult{}, fmt.Errorf("stateful: init[%d] = %d outside Σ of size %d", i, l, p.Size)
		}
	}
	// The configuration after step t is interned with ID t, so a repeat's
	// ID is the step it first occurred at.
	codec := enc.NewLabelCodec(core.MustLabelSpace(p.Size), p.N)
	seen := enc.NewTable(codec.Words(), 0)
	keyBuf := codec.PackLabels(cur, nil)
	seen.Intern(keyBuf)
	for t := 1; t <= maxSteps; t++ {
		p.Step(cur, next, all)
		cur, next = next, cur
		if p.IsStable(cur) {
			return RunResult{Stable: true, Steps: t, Final: append([]core.Label(nil), cur...)}, nil
		}
		keyBuf = codec.PackLabels(cur, keyBuf)
		if id, fresh := seen.Intern(keyBuf); !fresh {
			return RunResult{Steps: t, CycleLen: t - id, Final: append([]core.Label(nil), cur...)}, nil
		}
	}
	return RunResult{Steps: maxSteps, Final: append([]core.Label(nil), cur...)}, nil
}

// StringOscillation is an instance of the String-Oscillation problem
// (Theorem B.10's source problem): given g : Γ^m → Γ ∪ {halt}, does some
// initial string make the round-robin rewrite procedure run forever?
type StringOscillation struct {
	M     int
	Gamma uint64
	// G returns (value, halt). When halt is true the value is ignored.
	G func(t []uint64) (uint64, bool)
}

// Validate checks the instance shape.
func (so *StringOscillation) Validate() error {
	if so.M < 1 || so.Gamma < 1 || so.G == nil {
		return errors.New("stateful: malformed String-Oscillation instance")
	}
	return nil
}

// RunsForever simulates the procedure from the given initial string with
// cycle detection over (string, index) states; the state space is finite
// (Γ^m · m), so the verdict is exact.
func (so *StringOscillation) RunsForever(initial []uint64) (bool, error) {
	if len(initial) != so.M {
		return false, errors.New("stateful: bad initial string length")
	}
	t := append([]uint64(nil), initial...)
	i := 0
	type state struct {
		key string
		i   int
	}
	seen := map[state]bool{}
	for {
		v, halt := so.G(t)
		if halt {
			return false, nil
		}
		t[i] = v
		i = (i + 1) % so.M
		s := state{key: ukey(t), i: i}
		if seen[s] {
			return true, nil
		}
		seen[s] = true
	}
}

func ukey(t []uint64) string {
	buf := make([]byte, 0, 8*len(t))
	for _, v := range t {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>uint(s)))
		}
	}
	return string(buf)
}

// SomeOscillation exhaustively searches all Γ^m initial strings; returns a
// witness if any runs forever. Exponential — exactly why the problem is
// PSPACE-hard in general.
func (so *StringOscillation) SomeOscillation() (bool, []uint64, error) {
	t := make([]uint64, so.M)
	for {
		forever, err := so.RunsForever(t)
		if err != nil {
			return false, nil, err
		}
		if forever {
			return true, append([]uint64(nil), t...), nil
		}
		i := 0
		for i < so.M {
			t[i]++
			if t[i] < so.Gamma {
				break
			}
			t[i] = 0
			i++
		}
		if i == so.M {
			return false, nil, nil
		}
	}
}

// haltSentinel is the Γ-th letter value encoding "halt" inside labels.
func (so *StringOscillation) haltSentinel() uint64 { return so.Gamma }

// LabelSpaceSize returns |Σ| = m·(|Γ|+1) for the reduction protocol:
// labels encode pairs (k, a) with k ∈ [m] and a ∈ Γ ∪ {halt}.
func (so *StringOscillation) LabelSpaceSize() uint64 {
	return uint64(so.M) * (so.Gamma + 1)
}

func (so *StringOscillation) packLabel(k int, a uint64) core.Label {
	return core.Label(uint64(k)*(so.Gamma+1) + a)
}

func (so *StringOscillation) unpackLabel(l core.Label) (int, uint64) {
	size := so.Gamma + 1
	v := uint64(l) % (uint64(so.M) * size)
	return int(v / size), v % size
}

// Reduce builds the Theorem B.11 stateful protocol on K_{m+1} whose label
// r-stabilization fails exactly when some initial string makes the
// procedure run forever. Nodes 0..m-1 hold the string letters (absorbing
// node m's broadcast writes); node m drives the round-robin rewrite.
func (so *StringOscillation) Reduce() (*Protocol, error) {
	if err := so.Validate(); err != nil {
		return nil, err
	}
	m := so.M
	halt := so.haltSentinel()
	p := &Protocol{N: m + 1, Size: so.LabelSpaceSize(), Reactions: make([]func([]core.Label) core.Label, m+1)}
	for i := 0; i < m; i++ {
		i := i
		p.Reactions[i] = func(labels []core.Label) core.Label {
			j, gam := so.unpackLabel(labels[m])
			_, own := so.unpackLabel(labels[i])
			switch {
			case gam == halt:
				return so.packLabel(0, halt)
			case j == i:
				return so.packLabel(0, gam)
			default:
				return so.packLabel(0, own)
			}
		}
	}
	p.Reactions[m] = func(labels []core.Label) core.Label {
		j, gam := so.unpackLabel(labels[m])
		if gam == halt {
			return so.packLabel(0, halt)
		}
		letters := make([]uint64, m)
		for i := 0; i < m; i++ {
			_, letters[i] = so.unpackLabel(labels[i])
			if letters[i] == halt {
				// A letter slot holding the halt sentinel is garbage from
				// an adversarial initialization; treat as letter 0.
				letters[i] = 0
			}
		}
		if letters[j] == gam {
			v, h := so.G(letters)
			if h {
				return so.packLabel(0, halt)
			}
			return so.packLabel((j+1)%m, v)
		}
		return so.packLabel(j, gam)
	}
	return p, nil
}

// ReductionStart returns the initial configuration simulating the
// procedure from string t: node i holds t_i and node m holds (0, g-write
// pending for slot 0)... following B.12: ℓ⁰_i = (0, t_i), ℓ⁰_m = (0, v)
// with v the first write g(t).
func (so *StringOscillation) ReductionStart(t []uint64) ([]core.Label, error) {
	if len(t) != so.M {
		return nil, errors.New("stateful: bad string length")
	}
	cfg := make([]core.Label, so.M+1)
	for i, v := range t {
		cfg[i] = so.packLabel(0, v)
	}
	v, h := so.G(t)
	if h {
		cfg[so.M] = so.packLabel(0, so.haltSentinel())
	} else {
		cfg[so.M] = so.packLabel(0, v)
	}
	return cfg, nil
}

// Metanode builds the Theorem B.14 stateless protocol Ā on K_{3n} from a
// stateful protocol A on K_n: each node of A becomes a metanode of three
// nodes; a node emits the special label ω unless its view is consistent
// (all other metanodes unanimous and non-ω, own two partners equal and
// non-ω), in which case it simulates δ_i on the majority labeling —
// emitting ω instead when that labeling is already a fixed point of A.
// Ā's unique stable labeling is ω^{3n}; A's oscillations survive verbatim
// (activate whole metanodes), so A is label r-stabilizing iff Ā is.
func Metanode(a *Protocol) (*core.Protocol, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	n := a.N
	g := graph.Clique(3 * n)
	omega := core.Label(a.Size)
	space := core.MustLabelSpace(a.Size + 1)
	reactions := make([]core.Reaction, 3*n)

	emit := func(out []core.Label, l core.Label) core.Bit {
		for i := range out {
			out[i] = l
		}
		return 0
	}
	for v := 0; v < 3*n; v++ {
		v := v
		meta := v / 3
		reactions[v] = func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			// in is indexed by source node u (skipping v): u if u<v else u-1.
			at := func(u int) core.Label {
				if u > v {
					u--
				}
				return in[u]
			}
			ell := make([]core.Label, n)
			for i := 0; i < n; i++ {
				if i == meta {
					// Own metanode: the two partners must agree, non-ω.
					var partners []core.Label
					for j := 0; j < 3; j++ {
						u := 3*i + j
						if u != v {
							partners = append(partners, at(u))
						}
					}
					if partners[0] != partners[1] || partners[0] >= omega {
						return emit(out, omega)
					}
					ell[i] = partners[0]
					continue
				}
				l0, l1, l2 := at(3*i), at(3*i+1), at(3*i+2)
				if l0 != l1 || l1 != l2 || l0 >= omega {
					return emit(out, omega)
				}
				ell[i] = l0
			}
			if a.IsStable(ell) {
				return emit(out, omega)
			}
			return emit(out, a.Reactions[meta](ell))
		}
	}
	return core.NewProtocol(g, space, reactions)
}

// MetanodeStart lifts a configuration of A to the corresponding labeling
// of Ā (every node of metanode i emits cfg_i).
func MetanodeStart(p *core.Protocol, cfg []core.Label) core.Labeling {
	g := p.Graph()
	l := core.UniformLabeling(g, 0)
	for v := 0; v < g.N(); v++ {
		for _, id := range g.Out(graph.NodeID(v)) {
			l[id] = cfg[v/3]
		}
	}
	return l
}
