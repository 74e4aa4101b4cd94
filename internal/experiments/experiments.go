// Package experiments regenerates the paper's "evaluation": one experiment
// per theorem/claim (the paper is a theory paper with no empirical tables,
// so each experiment either executes a construction and measures that the
// claimed complexity holds, exhaustively verifies an (im)possibility on
// small instances, or tabulates a bound next to a matching protocol).
// The per-experiment index lives in DESIGN.md; measured-vs-paper deltas in
// EXPERIMENTS.md. Both cmd/experiments and bench_test.go drive this
// package.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"stateless/internal/bestresponse"
	"stateless/internal/bp"
	"stateless/internal/circuit"
	"stateless/internal/commcc"
	"stateless/internal/core"
	"stateless/internal/counter"
	"stateless/internal/graph"
	"stateless/internal/lowerbound"
	"stateless/internal/obs"
	"stateless/internal/par"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
	"stateless/internal/stateful"
	"stateless/internal/verify"
)

// Workers bounds the worker pools every experiment fans out on (trial
// sweeps, round-complexity sweeps, the states-graph verifier); ≤ 0 means
// GOMAXPROCS. cmd/experiments sets it from its -workers flag before
// running; it must not be changed while experiments are in flight.
var Workers int

// Metrics, when non-nil, is attached to every verifier invocation the
// experiments make (see verify.Options.Metrics), so cmd/experiments can
// report and serve cumulative exploration telemetry. Like Workers it is
// set once before running.
var Metrics *obs.Registry

// verifyOpts is the standard verifier configuration of the experiments.
func verifyOpts() verify.Options {
	return verify.Options{Limit: 1 << 24, Workers: Workers, Metrics: Metrics}
}

// Table is one experiment's regenerated rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render pretty-prints the table.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Experiment is a named experiment generator.
type Experiment struct {
	ID  string
	Run func() (Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1CliqueStabilization},
		{"E2", E2TreeProtocol},
		{"E3", E3UnidirectionalRounds},
		{"E4", E4Counters},
		{"E5", E5BPRing},
		{"E6", E6CircuitRing},
		{"E7", E7CountingBound},
		{"E8", E8FoolingSets},
		{"E9", E9CommHardness},
		{"E10", E10MetanodeReduction},
		{"E11", E11BestResponse},
		{"E13", E13AlmostStateless},
		{"E14", E14RandomizedSymmetryBreaking},
		{"E15", E15SymmetryZoo},
		{"E16", E16ScenarioSweep},
	}
}

func itoa(v int) string     { return strconv.Itoa(v) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func btoa(v bool) string    { return strconv.FormatBool(v) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// E1CliqueStabilization reproduces Theorem 3.1 + Example 1: the Example 1
// clique protocol has two stable labelings; it oscillates under the
// (n−1)-fair adversarial schedule; and (verified exhaustively for n ≤ 4)
// it is label r-stabilizing for every r < n−1 but not for r = n−1.
func E1CliqueStabilization() (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "Theorem 3.1 tightness on Example 1's clique protocol",
		Header: []string{"n", "stable labelings", "(n-1)-fair oscillates", "r<n-1 stabilizing", "r=n-1 stabilizing", "method"},
	}
	for n := 3; n <= 5; n++ {
		p, err := protocols.Example1Clique(n)
		if err != nil {
			return t, err
		}
		x := make(core.Input, n)
		stable, err := verify.StablePerNodeLabelings(p, x, 1<<22, Workers)
		if err != nil {
			return t, err
		}
		script, err := schedule.NewScripted(protocols.Example1OscillationSchedule(n))
		if err != nil {
			return t, err
		}
		res, err := sim.Run(p, x, protocols.Example1OscillationStart(p.Graph()), script,
			sim.Options{MaxSteps: 100 * n, DetectCycles: true})
		if err != nil {
			return t, err
		}
		oscillates := res.CycleLen > 0 && !core.IsStable(p, x, res.Final.Labels)

		method := "verifier"
		lowOK, highStab := true, true
		if n <= 4 {
			for r := 1; r < n-1; r++ {
				dec, err := verify.LabelRStabilizingOpts(p, x, r, verifyOpts())
				if err != nil {
					return t, err
				}
				lowOK = lowOK && dec.Stabilizing
			}
			dec, err := verify.LabelRStabilizingOpts(p, x, n-1, verifyOpts())
			if err != nil {
				return t, err
			}
			highStab = dec.Stabilizing
		} else {
			// State space too large for the exhaustive verifier (that is
			// Theorem 4.2's point); sample synchronous runs instead, fanned
			// out over the worker pool with one seeded RNG per trial.
			method = "sampled"
			stable := make([]bool, 50)
			err := par.ForEach(len(stable), Workers, func(trial int) error {
				rng := rand.New(rand.NewPCG(uint64(n), uint64(5+trial)))
				l0 := core.RandomLabeling(p.Graph(), p.Space(), rng)
				r, err := sim.RunSynchronous(p, x, l0, 1000)
				if err != nil {
					return err
				}
				stable[trial] = r.Status == sim.LabelStable
				return nil
			})
			if err != nil {
				return t, err
			}
			for _, ok := range stable {
				lowOK = lowOK && ok
			}
			highStab = !oscillates
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(len(stable)), btoa(oscillates), btoa(lowOK), btoa(highStab), method,
		})
	}
	return t, nil
}

// E2TreeProtocol reproduces Propositions 2.1–2.3: the generic protocol
// computes any f with L = n+1 bits within R ≤ 2n rounds, and no
// output-stabilizing protocol beats the graph radius.
func E2TreeProtocol() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Proposition 2.3 generic protocol (L=n+1, R≤2n) vs radius lower bound",
		Header: []string{"graph", "n", "radius", "measured R", "bound 2n", "label bits", "paper n+1"},
	}
	xor := func(x core.Input) core.Bit {
		var v core.Bit
		for _, b := range x {
			v ^= b
		}
		return v
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"uni-ring", graph.Ring(5)},
		{"bi-ring", graph.BidirectionalRing(6)},
		{"clique", graph.Clique(5)},
		{"star", graph.Star(6)},
		{"torus", graph.Torus(2, 3)},
	}
	for _, c := range cases {
		n := c.g.N()
		p, err := protocols.TreeProtocol(c.g, xor)
		if err != nil {
			return t, err
		}
		var inputs []core.Input
		for v := uint64(0); v < 1<<uint(n); v++ {
			inputs = append(inputs, core.InputFromUint(v, n))
		}
		rng := rand.New(rand.NewPCG(9, 9))
		labelings := []core.Labeling{core.UniformLabeling(c.g, 0),
			core.RandomLabeling(c.g, p.Space(), rng)}
		worst, err := sim.RoundComplexity(context.Background(), p, inputs, labelings, 20*n, Workers, func(x core.Input, res sim.Result) error {
			for _, y := range res.Outputs {
				if y != xor(x) {
					return fmt.Errorf("wrong output on %s", x)
				}
			}
			return nil
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, itoa(n), itoa(c.g.Radius()), itoa(worst), itoa(2 * n),
			itoa(p.LabelBits()), itoa(n + 1),
		})
	}
	return t, nil
}

// E3UnidirectionalRounds reproduces Lemma C.2: R ≤ n·|Σ| in general, and
// the slow protocol achieves exactly n·(|Σ|−1).
func E3UnidirectionalRounds() (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "Lemma C.2 round complexity on the unidirectional ring",
		Header: []string{"n", "|Σ|", "measured R", "paper n(q-1)", "bound nq"},
	}
	for _, c := range []struct {
		n int
		q uint64
	}{{3, 2}, {4, 3}, {5, 4}, {6, 5}, {8, 8}} {
		p, err := protocols.SlowUnidirectional(c.n, c.q)
		if err != nil {
			return t, err
		}
		res, err := sim.RunSynchronous(p, make(core.Input, c.n),
			core.UniformLabeling(p.Graph(), 0), 4*c.n*int(c.q))
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(c.n), utoa(c.q), itoa(res.StabilizedAt),
			itoa(c.n * (int(c.q) - 1)), utoa(protocols.UnidirectionalRoundBound(c.n, c.q)),
		})
	}
	return t, nil
}

// E4Counters reproduces Claims 5.5/5.6: worst observed stabilization time
// of the D-counter from random labelings vs the paper's R = 4n, and the
// exact label complexity 2 + 3·log D.
func E4Counters() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "Claim 5.5/5.6 self-stabilizing counters on odd bidirectional rings",
		Header: []string{"n", "D", "worst stabilization", "paper 4n", "label bits", "paper 2+3logD"},
	}
	for _, c := range []struct {
		n int
		d uint64
	}{{5, 8}, {7, 16}, {9, 32}, {13, 64}} {
		dc, err := counter.NewDCounter(c.n, c.d)
		if err != nil {
			return t, err
		}
		rng := rand.New(rand.NewPCG(uint64(c.n), c.d))
		worst := 0
		for trial := 0; trial < 10; trial++ {
			state := make([]counter.Fields, c.n)
			for j := range state {
				state[j] = counter.Fields{
					B1: core.Bit(rng.IntN(2)), B2: core.Bit(rng.IntN(2)),
					Z: rng.Uint64N(c.d), G: rng.Uint64N(c.d), C: rng.Uint64N(c.d),
				}
			}
			st, err := stabilizationTime(dc, state)
			if err != nil {
				return t, err
			}
			if st > worst {
				worst = st
			}
		}
		logd := 0
		for v := c.d - 1; v > 0; v >>= 1 {
			logd++
		}
		t.Rows = append(t.Rows, []string{
			itoa(c.n), utoa(c.d), itoa(worst), itoa(4 * c.n),
			itoa(dc.LabelBits()), itoa(2 + 3*logd),
		})
	}
	return t, nil
}

func stabilizationTime(dc *counter.DCounter, state []counter.Fields) (int, error) {
	n := dc.N()
	d := dc.D()
	step := func(s []counter.Fields) []counter.Fields {
		next := make([]counter.Fields, n)
		for j := 0; j < n; j++ {
			next[j] = dc.Update(j, s[(j-1+n)%n], s[(j+1)%n])
		}
		return next
	}
	read := func(s []counter.Fields) []uint64 {
		out := make([]uint64, n)
		for j := 0; j < n; j++ {
			out[j] = dc.Read(j, s[(j-1+n)%n], s[(j+1)%n])
		}
		return out
	}
	horizon := dc.StabilizationBound() + 4*n
	history := make([][]uint64, 0, horizon)
	for k := 0; k < horizon; k++ {
		history = append(history, read(state))
		state = step(state)
	}
	for start := 0; start+2*n < len(history); start++ {
		ok := true
		for k := start; k < start+2*n && ok; k++ {
			row := history[k]
			for j := 1; j < n; j++ {
				if row[j] != row[0] {
					ok = false
				}
			}
			if ok && k > start && row[0] != (history[k-1][0]+1)%d {
				ok = false
			}
		}
		if ok {
			return start, nil
		}
	}
	return 0, fmt.Errorf("counter never stabilized (n=%d D=%d)", n, d)
}

// E5BPRing reproduces Theorem 5.2: branching programs compile to
// unidirectional-ring protocols with logarithmic labels (exhaustively
// equivalent), and ring protocols extract back to branching programs.
func E5BPRing() (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "Theorem 5.2: BP ⇄ unidirectional ring (L/poly characterization)",
		Header: []string{"function", "n", "BP size", "ring label bits", "settle bound", "equiv", "extract size"},
	}
	cases := []struct {
		name  string
		build func() (*bp.BP, error)
	}{
		{"parity", func() (*bp.BP, error) { return bp.Parity(4) }},
		{"equality", func() (*bp.BP, error) { return bp.Equality(4) }},
		{"majority", func() (*bp.BP, error) { return bp.Majority(5) }},
	}
	for _, c := range cases {
		prog, err := c.build()
		if err != nil {
			return t, err
		}
		rp, err := bp.CompileToRing(prog)
		if err != nil {
			return t, err
		}
		n := prog.NumInputs
		g := rp.Protocol().Graph()
		match := make([]bool, 1<<uint(n))
		err = par.ForEach(len(match), Workers, func(v int) error {
			x := core.InputFromUint(uint64(v), n)
			got, err := settleRing(rp.Protocol(), x, core.UniformLabeling(g, 0), rp.SettleBound())
			if err != nil {
				return err
			}
			match[v] = got == prog.MustEval(x)
			return nil
		})
		if err != nil {
			return t, err
		}
		equiv := true
		for _, ok := range match {
			equiv = equiv && ok
		}
		back, err := bp.FromRingProtocol(rp.Protocol(), 0)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, itoa(n), itoa(prog.Size()), itoa(rp.LabelBits()),
			itoa(rp.SettleBound()), btoa(equiv), itoa(back.Size()),
		})
	}
	return t, nil
}

// settleRing returns node 0's output after settle synchronous steps.
func settleRing(p *core.Protocol, x core.Input, l0 core.Labeling, settle int) (core.Bit, error) {
	res, err := sim.Run(p, x, l0, schedule.Synchronous{N: p.Graph().N()}, sim.Options{MaxSteps: settle})
	if err != nil {
		return 0, err
	}
	return res.Outputs[0], nil
}

// E6CircuitRing reproduces Theorem 5.4: circuits compile to
// output-stabilizing protocols on odd bidirectional rings over the
// D-counter, with logarithmic labels; exhaustively equivalent.
func E6CircuitRing() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "Theorem 5.4: circuit → bidirectional ring (P/poly simulation)",
		Header: []string{"circuit", "gates", "ring N", "D", "label bits", "settle bound", "equiv"},
	}
	cases := []struct {
		name  string
		build func() (*circuit.Circuit, error)
	}{
		{"and3", func() (*circuit.Circuit, error) { return circuit.AndTree(3) }},
		{"parity3", func() (*circuit.Circuit, error) { return circuit.Parity(3) }},
		{"eq4", func() (*circuit.Circuit, error) { return circuit.Equality(4) }},
	}
	for _, c := range cases {
		cc, err := c.build()
		if err != nil {
			return t, err
		}
		rp, err := circuit.CompileToRing(cc)
		if err != nil {
			return t, err
		}
		g := rp.Protocol().Graph()
		n := cc.NumInputs
		match := make([]bool, 1<<uint(n))
		err = par.ForEach(len(match), Workers, func(v int) error {
			x := core.InputFromUint(uint64(v), n)
			full, err := rp.Inputs(x)
			if err != nil {
				return err
			}
			got, err := settleRing(rp.Protocol(), full, core.UniformLabeling(g, 0), rp.SettleBound())
			if err != nil {
				return err
			}
			match[v] = got == cc.Eval(x)
			return nil
		})
		if err != nil {
			return t, err
		}
		equiv := true
		for _, ok := range match {
			equiv = equiv && ok
		}
		t.Rows = append(t.Rows, []string{
			c.name, itoa(cc.Size()), itoa(rp.RingSize()), utoa(rp.CounterModulus()),
			itoa(rp.LabelBits()), itoa(rp.SettleBound()), btoa(equiv),
		})
	}
	return t, nil
}

// E7CountingBound tabulates Theorem 5.10: some function on a
// degree-k graph needs labels of length n/(4k), against the generic n+1
// upper bound of Proposition 2.3.
func E7CountingBound() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "Theorem 5.10 counting lower bound vs Proposition 2.3 upper bound",
		Header: []string{"n", "k (bi-ring degree)", "lower n/(4k)", "upper n+1", "protocols(bits) < functions(bits)"},
	}
	for _, n := range []int{16, 32, 64, 128} {
		k := graph.BidirectionalRing(n).MaxDegree()
		low := lowerbound.CountingBound(n, k)
		bits := int(low) - 1
		ok := true
		if bits >= 1 {
			ok = lowerbound.ProtocolCountBits(n, k, bits) < math.Pow(2, float64(n))
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(k), ftoa(low), itoa(n + 1), btoa(ok),
		})
	}
	return t, nil
}

// E8FoolingSets reproduces Theorem 6.2 + Corollaries 6.3/6.4: verified
// fooling sets for EQ and MAJ and the resulting label-complexity lower
// bounds on the bidirectional ring, next to the generic upper bound.
func E8FoolingSets() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "Corollaries 6.3/6.4 fooling-set label lower bounds (bits)",
		Header: []string{"function", "n", "|S|", "lower bound", "paper formula", "upper n+1", "fooling verified"},
	}
	for _, n := range []int{6, 8, 10} {
		s, err := lowerbound.EqualityFoolingSet(n)
		if err != nil {
			return t, err
		}
		verified := s.Verify(lowerbound.EqualityFn, n) == nil
		b, err := lowerbound.Bound(graph.BidirectionalRing(n), s)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			"EQ", itoa(n), itoa(s.Size()), ftoa(b), ftoa(float64(n-2) / 8), itoa(n + 1), btoa(verified),
		})
	}
	for _, n := range []int{6, 10, 16} {
		s, err := lowerbound.MajorityFoolingSet(n)
		if err != nil {
			return t, err
		}
		verified := s.Verify(lowerbound.MajorityFn, n) == nil
		b, err := lowerbound.Bound(graph.BidirectionalRing(n), s)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			"MAJ", itoa(n), itoa(s.Size()), ftoa(b), ftoa(math.Log2(float64(n/2)) / 4), itoa(n + 1), btoa(verified),
		})
	}
	return t, nil
}

// E9CommHardness reproduces Theorem 4.1: the EQ and DISJ gadgets on K_n
// stabilize exactly according to the communication problem's answer, with
// vector capacity |S| = s(n−2) growing exponentially.
func E9CommHardness() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "Theorem 4.1 gadgets: r-stabilization ⇔ EQ / DISJ of 2^Ω(n)-bit vectors",
		Header: []string{"gadget", "n", "|S| (comm bits)", "same/intersecting oscillates", "diff/disjoint stabilizes"},
	}
	for _, n := range []int{5, 6} {
		capacity, err := commcc.Capacity(n)
		if err != nil {
			return t, err
		}
		rng := rand.New(rand.NewPCG(uint64(n), 77))
		x := make([]core.Bit, capacity)
		for i := range x {
			x[i] = core.Bit(rng.IntN(2))
		}
		gd, err := commcc.NewEqualityGadget(n, x, x)
		if err != nil {
			return t, err
		}
		res, err := sim.RunSynchronous(gd.Protocol, make(core.Input, n),
			gd.EqualityOscillationStart(0), 100*capacity)
		if err != nil {
			return t, err
		}
		oscillates := res.CycleLen > 0 && !core.IsStable(gd.Protocol, make(core.Input, n), res.Final.Labels)

		y := append([]core.Bit(nil), x...)
		y[0] = 1 - y[0]
		gd2, err := commcc.NewEqualityGadget(n, x, y)
		if err != nil {
			return t, err
		}
		stableTrials := make([]bool, 20)
		err = par.ForEach(len(stableTrials), Workers, func(trial int) error {
			trng := rand.New(rand.NewPCG(uint64(n), uint64(78+trial)))
			l0 := core.RandomLabeling(gd2.Protocol.Graph(), gd2.Protocol.Space(), trng)
			r, err := sim.RunSynchronous(gd2.Protocol, make(core.Input, n), l0, 100*capacity)
			if err != nil {
				return err
			}
			stableTrials[trial] = r.Status == sim.LabelStable
			return nil
		})
		if err != nil {
			return t, err
		}
		stabilizes := true
		for _, ok := range stableTrials {
			stabilizes = stabilizes && ok
		}
		t.Rows = append(t.Rows, []string{
			"EQ", itoa(n), itoa(capacity), btoa(oscillates), btoa(stabilizes),
		})
	}
	// DISJ gadget at n=6.
	n := 6
	capacity, err := commcc.Capacity(n)
	if err != nil {
		return t, err
	}
	q := capacity / 2
	xv := make([]core.Bit, q)
	yv := make([]core.Bit, q)
	xv[1], yv[1] = 1, 1
	gd, err := commcc.NewDisjointnessGadget(n, xv, yv, q)
	if err != nil {
		return t, err
	}
	script, err := schedule.NewScripted(gd.DisjOscillationSchedule())
	if err != nil {
		return t, err
	}
	res, err := sim.Run(gd.Protocol, make(core.Input, n), gd.DisjOscillationStart(1), script,
		sim.Options{MaxSteps: 200 * (q + 2), DetectCycles: true})
	if err != nil {
		return t, err
	}
	intersectOsc := res.Status == sim.Oscillating

	for i := range xv {
		xv[i], yv[i] = 0, 0
		if i%2 == 0 {
			xv[i] = 1
		} else {
			yv[i] = 1
		}
	}
	gd2, err := commcc.NewDisjointnessGadget(n, xv, yv, q)
	if err != nil {
		return t, err
	}
	disjTrials := make([]bool, 20)
	err = par.ForEach(len(disjTrials), Workers, func(trial int) error {
		trng := rand.New(rand.NewPCG(3, uint64(1+trial)))
		l0 := core.RandomLabeling(gd2.Protocol.Graph(), gd2.Protocol.Space(), trng)
		r, err := sim.RunSynchronous(gd2.Protocol, make(core.Input, n), l0, 5000)
		if err != nil {
			return err
		}
		disjTrials[trial] = r.Status == sim.LabelStable
		return nil
	})
	if err != nil {
		return t, err
	}
	disjStab := true
	for _, ok := range disjTrials {
		disjStab = disjStab && ok
	}
	t.Rows = append(t.Rows, []string{
		"DISJ", itoa(n), itoa(q), btoa(intersectOsc), btoa(disjStab),
	})
	return t, nil
}

// E10MetanodeReduction reproduces Theorem 4.2's machinery: the
// String-Oscillation verdict, the stateful reduction's behaviour, and the
// stateless metanode protocol's behaviour all agree.
func E10MetanodeReduction() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "Theorem 4.2 reduction chain: String-Oscillation ⇒ stateful ⇒ stateless (metanode)",
		Header: []string{"instance", "procedure loops", "stateful oscillates", "metanode oscillates"},
	}
	instances := []struct {
		name string
		so   *stateful.StringOscillation
		init []uint64
	}{
		{"looping g(T)=¬T0", &stateful.StringOscillation{
			M: 2, Gamma: 2,
			G: func(tt []uint64) (uint64, bool) { return 1 - tt[0], false },
		}, []uint64{0, 0}},
		{"halting g", &stateful.StringOscillation{
			M: 2, Gamma: 2,
			G: func(tt []uint64) (uint64, bool) {
				if tt[0] == 1 {
					return 0, true
				}
				return 1, false
			},
		}, []uint64{0, 0}},
	}
	for _, inst := range instances {
		loops, _, err := inst.so.SomeOscillation()
		if err != nil {
			return t, err
		}
		a, err := inst.so.Reduce()
		if err != nil {
			return t, err
		}
		start, err := inst.so.ReductionStart(inst.init)
		if err != nil {
			return t, err
		}
		sres, err := a.RunSynchronous(start, 20000)
		if err != nil {
			return t, err
		}
		statefulOsc := !sres.Stable && sres.CycleLen > 0
		if !loops {
			// For halting instances, check a sweep of initial configs.
			statefulOsc = false
			size := int(a.Size)
			rng := rand.New(rand.NewPCG(4, 4))
			for trial := 0; trial < 30; trial++ {
				cfg := make([]core.Label, a.N)
				for i := range cfg {
					cfg[i] = core.Label(rng.IntN(size))
				}
				r, err := a.RunSynchronous(cfg, 20000)
				if err != nil {
					return t, err
				}
				if !r.Stable {
					statefulOsc = true
				}
			}
		}
		abar, err := stateful.Metanode(a)
		if err != nil {
			return t, err
		}
		mres, err := sim.RunSynchronous(abar, make(core.Input, abar.Graph().N()),
			stateful.MetanodeStart(abar, start), 100000)
		if err != nil {
			return t, err
		}
		metaOsc := mres.Status != sim.LabelStable
		t.Rows = append(t.Rows, []string{inst.name, btoa(loops), btoa(statefulOsc), btoa(metaOsc)})
	}
	return t, nil
}

// E11BestResponse reproduces the §3 implications for best-response
// dynamics: BGP gadget behaviour by stable-state count, plus contagion.
func E11BestResponse() (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "Best-response dynamics (BGP / Stable Paths): equilibria vs convergence",
		Header: []string{"instance", "stable states", "sync run", "round-robin run", "label (n-1)-stabilizing"},
	}
	cases := []struct {
		name   string
		spp    *bestresponse.SPP
		verify bool
	}{
		{"good gadget", bestresponse.GoodGadget(), false},
		{"disagree", bestresponse.Disagree(), true},
		{"bad gadget", bestresponse.BadGadget(), false},
	}
	for _, c := range cases {
		stable, err := c.spp.StableAssignments()
		if err != nil {
			return t, err
		}
		p, err := c.spp.Protocol()
		if err != nil {
			return t, err
		}
		n := c.spp.N
		x := make(core.Input, n)
		syncRes, err := sim.RunSynchronous(p, x, core.UniformLabeling(p.Graph(), 0), 10000)
		if err != nil {
			return t, err
		}
		rrRes, err := sim.Run(p, x, core.UniformLabeling(p.Graph(), 0),
			schedule.RoundRobin{N: n}, sim.Options{MaxSteps: 10000, DetectCycles: true})
		if err != nil {
			return t, err
		}
		verdict := "n/a (state space)"
		if c.verify {
			dec, err := verify.LabelRStabilizingOpts(p, x, n-1, verifyOpts())
			if err == nil {
				verdict = btoa(dec.Stabilizing)
			}
		} else if len(stable) == 0 {
			verdict = "false (no stable state)"
		} else if len(stable) == 1 && syncRes.Status == sim.LabelStable {
			verdict = "plausible (unique equilibrium)"
		}
		t.Rows = append(t.Rows, []string{
			c.name, itoa(len(stable)), syncRes.Status.String(), rrRes.Status.String(), verdict,
		})
	}
	return t, nil
}
