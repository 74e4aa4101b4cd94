package almoststateless

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/sim"
	"stateless/internal/stateful"
)

// run runs p synchronously from c as its stateful folding.
func run(p *Protocol, c Config, maxSteps int) (stateful.RunResult, error) {
	sp, err := p.ToStateful()
	if err != nil {
		return stateful.RunResult{}, err
	}
	lifted, err := p.LiftConfig(c)
	if err != nil {
		return stateful.RunResult{}, err
	}
	return sp.RunSynchronous(lifted, maxSteps)
}

func TestToggleClockOscillates(t *testing.T) {
	p, err := ToggleClock(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MemoryBits() != 1 {
		t.Errorf("memory bits %d, want 1", p.MemoryBits())
	}
	res, err := run(p, Config{Labels: []core.Label{0}, Mems: []core.Label{0}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable || res.CycleLen != 2 {
		t.Errorf("want a 2-cycle, got %+v", res)
	}
}

// TestStatelessSingleNodeIsConstant establishes the separation: every
// deterministic stateless protocol on a single isolated node stabilizes
// after one activation (its reaction takes no inputs besides the fixed
// input bit, so it is constant) — the ToggleClock behaviour is impossible.
func TestStatelessSingleNodeIsConstant(t *testing.T) {
	g := graph.MustNew(1, nil)
	p, err := core.NewUniformProtocol(g, core.BinarySpace(),
		func(_ []core.Label, input core.Bit, _ []core.Label) core.Bit {
			return input // any stateless reaction here is a constant function
		})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(p, core.Input{1}, core.Labeling{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable || res.StabilizedAt > 1 {
		t.Errorf("isolated stateless node must be immediately stable: %+v", res)
	}
}

func TestModCounterCounts(t *testing.T) {
	p, err := ModCounter(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Labels: make([]core.Label, 3), Mems: make([]core.Label, 3)}
	all := []int{0, 1, 2}
	var seen []core.Label
	for k := 0; k < 12; k++ {
		cfg = p.Step(cfg, all)
		seen = append(seen, cfg.Labels[0])
	}
	for k := 1; k < len(seen); k++ {
		if seen[k] != (seen[k-1]+1)%5 {
			t.Fatalf("broadcast count %v not incrementing mod 5", seen)
		}
	}
	// Followers copy with one step of lag.
	if cfg.Labels[1] != seen[len(seen)-2] {
		t.Errorf("follower should lag the leader by one step")
	}
}

func TestToStatefulBisimulation(t *testing.T) {
	// The stateful folding must reproduce the almost-stateless run
	// step-for-step under the projection.
	p, err := ModCounter(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := p.ToStateful()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Labels: []core.Label{3, 1}, Mems: []core.Label{2, 0}}
	scur, err := p.LiftConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snext := make([]core.Label, p.N)
	all := []int{0, 1}
	for step := 0; step < 20; step++ {
		cfg = p.Step(cfg, all)
		sp.Step(scur, snext, all)
		scur, snext = snext, scur
		for i := 0; i < p.N; i++ {
			wantLabel := cfg.Labels[i] % core.Label(p.LabelSize)
			wantMem := cfg.Mems[i] % core.Label(p.MemSize)
			gotLabel := scur[i] % core.Label(p.LabelSize)
			gotMem := scur[i] / core.Label(p.LabelSize)
			if gotLabel != wantLabel || gotMem != wantMem {
				t.Fatalf("step %d node %d: stateful (%d,%d) vs almost-stateless (%d,%d)",
					step, i, gotLabel, gotMem, wantLabel, wantMem)
			}
		}
	}
}

func TestToStatelessPreservesOscillation(t *testing.T) {
	// ToggleClock on K_2 → metanode stateless protocol on K_6: the clock's
	// non-stabilization survives the whole compilation chain.
	p, err := ToggleClock(2)
	if err != nil {
		t.Fatal(err)
	}
	pure, err := p.ToStateless()
	if err != nil {
		t.Fatal(err)
	}
	if pure.Graph().N() != 6 {
		t.Fatalf("metanode graph has %d nodes, want 6", pure.Graph().N())
	}
	lifted, err := p.LiftConfig(Config{
		Labels: []core.Label{0, 0}, Mems: []core.Label{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := stateful.MetanodeStart(pure, lifted)
	res, err := sim.RunSynchronous(pure, make(core.Input, 6), start, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == sim.LabelStable {
		t.Error("clock oscillation lost through the stateless compilation")
	}
}

func TestToStatelessPreservesStabilization(t *testing.T) {
	// A trivially convergent almost-stateless protocol (emit 0, keep mem 0)
	// compiles to a stateless protocol that collapses to ω everywhere.
	p := &Protocol{N: 2, LabelSize: 2, MemSize: 2, Reactions: []Reaction{
		func(_ []core.Label, _ core.Label) (core.Label, core.Label) { return 0, 0 },
		func(_ []core.Label, _ core.Label) (core.Label, core.Label) { return 0, 0 },
	}}
	pure, err := p.ToStateless()
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := p.LiftConfig(Config{
		Labels: []core.Label{1, 0}, Mems: []core.Label{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := stateful.MetanodeStart(pure, lifted)
	res, err := sim.RunSynchronous(pure, make(core.Input, 6), start, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Errorf("status %v, want label-stable", res.Status)
	}
}

func TestValidate(t *testing.T) {
	bad := &Protocol{N: 1, LabelSize: 2, MemSize: 0, Reactions: make([]Reaction, 1)}
	if err := bad.Validate(); err == nil {
		t.Error("zero memory space should fail")
	}
	if _, err := ToggleClock(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := ModCounter(1, 1); err == nil {
		t.Error("mod=1 should fail")
	}
	if _, err := (&Protocol{}).ToStateful(); err == nil {
		t.Error("invalid protocol should fail to fold")
	}
	p, _ := ToggleClock(1)
	for _, tc := range []struct {
		c    Config
		want string
	}{
		{Config{}, "almoststateless: bad config shape"},
		{Config{Labels: []core.Label{2}, Mems: []core.Label{0}}, "almoststateless: init label 0 = 2 outside Σ of size 2"},
		{Config{Labels: []core.Label{0}, Mems: []core.Label{2}}, "almoststateless: init memory 0 = 2 outside M of size 2"},
	} {
		if _, err := p.LiftConfig(tc.c); err == nil || err.Error() != tc.want {
			t.Errorf("LiftConfig(%+v) = %v, want %q", tc.c, err, tc.want)
		}
	}
}

func TestRunSynchronousStable(t *testing.T) {
	p := &Protocol{N: 2, LabelSize: 3, MemSize: 2, Reactions: []Reaction{
		func(_ []core.Label, _ core.Label) (core.Label, core.Label) { return 2, 1 },
		func(labels []core.Label, _ core.Label) (core.Label, core.Label) { return labels[0], 0 },
	}}
	res, err := run(p, Config{Labels: make([]core.Label, 2), Mems: make([]core.Label, 2)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Errorf("want stable, got %+v", res)
	}
	// Node 0 settles at (label 2, mem 1), node 1 at (label 2, mem 0).
	if res.Final[0] != 2+1*3 || res.Final[1] != 2 {
		t.Errorf("wrong fixed point %v", res.Final)
	}
}

// TestFoldedRunMatchesStep runs random protocols both ways: the folded
// stateful run, and synchronous Protocol.Step with a configuration log
// that stops at the first step changing nothing or at a recurrence. The
// verdict, cycle length and final configuration must agree.
func TestFoldedRunMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(3)
		ls, ms := 1+rng.Uint64N(3), 1+rng.Uint64N(3)
		p := &Protocol{N: n, LabelSize: ls, MemSize: ms, Reactions: make([]Reaction, n)}
		for i := range p.Reactions {
			table := make(map[string][2]core.Label)
			p.Reactions[i] = func(labels []core.Label, mem core.Label) (core.Label, core.Label) {
				key := fmt.Sprint(labels, mem)
				if _, ok := table[key]; !ok {
					table[key] = [2]core.Label{core.Label(rng.Uint64N(ls)), core.Label(rng.Uint64N(ms))}
				}
				return table[key][0], table[key][1]
			}
		}
		cfg := Config{Labels: make([]core.Label, n), Mems: make([]core.Label, n)}
		for i := range n {
			cfg.Labels[i], cfg.Mems[i] = core.Label(rng.Uint64N(ls)), core.Label(rng.Uint64N(ms))
		}
		got, err := run(p, cfg, 1000)
		if err != nil {
			t.Fatal(err)
		}

		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		seen := map[string]int{fmt.Sprint(cfg): 0}
		stable, cycleLen := false, 0
		for step := 1; ; step++ {
			next := p.Step(cfg, all)
			if fmt.Sprint(next) == fmt.Sprint(cfg) {
				stable = true
				break
			}
			cfg = next
			if first, ok := seen[fmt.Sprint(cfg)]; ok {
				cycleLen = step - first
				break
			}
			seen[fmt.Sprint(cfg)] = step
		}
		want, err := p.LiftConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stable != stable || got.CycleLen != cycleLen || fmt.Sprint(got.Final) != fmt.Sprint(want) {
			t.Fatalf("trial %d: folded run (stable %v, cycle %d, final %v), Step (stable %v, cycle %d, final %v)",
				trial, got.Stable, got.CycleLen, got.Final, stable, cycleLen, want)
		}
	}
}
