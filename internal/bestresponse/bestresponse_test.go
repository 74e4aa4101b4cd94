package bestresponse

import (
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/schedule"
	"stateless/internal/sim"
	"stateless/internal/verify"
)

func TestStableAssignmentCounts(t *testing.T) {
	tests := []struct {
		name string
		spp  *SPP
		want int
	}{
		{"good gadget", GoodGadget(), 1},
		{"disagree", Disagree(), 2},
		{"bad gadget", BadGadget(), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			stable, err := tt.spp.StableAssignments()
			if err != nil {
				t.Fatal(err)
			}
			if len(stable) != tt.want {
				t.Fatalf("got %d stable assignments, want %d: %v", len(stable), tt.want, stable)
			}
		})
	}
}

func TestStableAssignmentsMatchStableLabelings(t *testing.T) {
	// The game-theoretic fixed points and the protocol's stable labelings
	// must coincide in number.
	for _, tt := range []struct {
		name string
		spp  *SPP
	}{
		{"good gadget", GoodGadget()},
		{"disagree", Disagree()},
		{"bad gadget", BadGadget()},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p, err := tt.spp.Protocol()
			if err != nil {
				t.Fatal(err)
			}
			assignments, err := tt.spp.StableAssignments()
			if err != nil {
				t.Fatal(err)
			}
			labelings, err := verify.StablePerNodeLabelings(p, make(core.Input, tt.spp.N), 1<<22, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Stable labelings may include per-edge-inconsistent ones only
			// if reactions emitted them, which they never do (same label to
			// all); so counts must match.
			if len(labelings) != len(assignments) {
				t.Errorf("%d stable labelings vs %d stable assignments",
					len(labelings), len(assignments))
			}
		})
	}
}

func TestGoodGadgetConvergesEverywhere(t *testing.T) {
	spp := GoodGadget()
	p, err := spp.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, spp.N)
	// Synchronous and round robin from the empty labeling.
	res, err := sim.RunSynchronous(p, x, core.UniformLabeling(g, 0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("synchronous: %v", res.Status)
	}
	for trial := 0; trial < 10; trial++ {
		sched, err := schedule.NewRandomRFair(spp.N, 3, 0.4, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(p, x, core.UniformLabeling(g, 0), sched, sim.Options{MaxSteps: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("trial %d: %v", trial, res.Status)
		}
	}
}

func TestDisagreeOscillatesSynchronously(t *testing.T) {
	// Two stable states ⇒ (Theorem 3.1) not (n−1)-stabilizing; here the
	// plain synchronous schedule already oscillates from the empty
	// labeling: both nodes perpetually chase each other's route.
	spp := Disagree()
	p, err := spp.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(p, make(core.Input, 3), core.UniformLabeling(p.Graph(), 0), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes always end up with *some* route, so outputs are constant
	// while the announced routes flap forever: a labeling cycle that never
	// reaches a fixed point.
	if res.CycleLen == 0 {
		t.Fatalf("status %v, want a labeling cycle (BGP route flapping)", res.Status)
	}
	if core.IsStable(p, make(core.Input, 3), res.Final.Labels) {
		t.Fatal("labels reached a fixed point; no flapping")
	}
}

func TestDisagreeConvergesUnderRoundRobin(t *testing.T) {
	// Asynchrony rescues DISAGREE: one node moves first and the other
	// happily composes with it.
	spp := Disagree()
	p, err := spp.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, make(core.Input, 3), core.UniformLabeling(p.Graph(), 0),
		schedule.RoundRobin{N: 3}, sim.Options{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("round robin: %v, want label-stable", res.Status)
	}
}

func TestBadGadgetNeverConverges(t *testing.T) {
	spp := BadGadget()
	p, err := spp.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(p, make(core.Input, 4), core.UniformLabeling(p.Graph(), 0), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleLen == 0 || core.IsStable(p, make(core.Input, 4), res.Final.Labels) {
		t.Fatalf("status %v, want label oscillation (no stable state exists)", res.Status)
	}
	// Under round robin too: with no stable state, no schedule converges.
	res, err = sim.Run(p, make(core.Input, 4), core.UniformLabeling(p.Graph(), 0),
		schedule.RoundRobin{N: 4}, sim.Options{MaxSteps: 10000, DetectCycles: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == sim.LabelStable {
		t.Fatal("BAD GADGET cannot label-stabilize")
	}
}

func TestDisagreeNotLabel2Stabilizing(t *testing.T) {
	// Machine-check Theorem 3.1 on DISAGREE via the exhaustive verifier:
	// n = 3, so label (n−1)=2-stabilization must fail.
	spp := Disagree()
	p, err := spp.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := verify.LabelRStabilizing(p, make(core.Input, 3), 2, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing {
		t.Error("DISAGREE has two stable states; it cannot be label 2-stabilizing")
	}
}

func TestSPPValidation(t *testing.T) {
	bad := &SPP{N: 2, Permitted: [][]Path{nil, {Path{1, 1}}}}
	if err := bad.Validate(); err == nil {
		t.Error("path not ending at 0 should fail")
	}
	bad2 := &SPP{N: 2, Permitted: [][]Path{nil, {Path{2, 0}}}}
	if err := bad2.Validate(); err == nil {
		t.Error("path not starting at owner should fail")
	}
	if err := (&SPP{N: 1}).Validate(); err == nil {
		t.Error("N=1 should fail")
	}
}

func TestContagionCascade(t *testing.T) {
	// Seeded contagion on a ring with threshold 1 cascades to everyone.
	g := graph.BidirectionalRing(8)
	c := &Contagion{Graph: g, Threshold: 1, Seeds: map[graph.NodeID]bool{0: true}}
	p, err := c.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(p, make(core.Input, 8), core.UniformLabeling(g, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("status %v", res.Status)
	}
	if got := len(c.Adopters(res.Final.Labels)); got != 8 {
		t.Errorf("%d adopters, want full cascade (8)", got)
	}
}

func TestContagionStuckWithoutEnoughNeighbors(t *testing.T) {
	// Threshold 2 with a single seed on a ring cannot spread: each
	// non-seed has only one adopting neighbor.
	g := graph.BidirectionalRing(6)
	c := &Contagion{Graph: g, Threshold: 2, Seeds: map[graph.NodeID]bool{0: true}}
	p, err := c.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSynchronous(p, make(core.Input, 6), core.UniformLabeling(g, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("status %v", res.Status)
	}
	if got := len(c.Adopters(res.Final.Labels)); got != 1 {
		t.Errorf("%d adopters, want only the seed", got)
	}
}

func TestContagionTwoStableStates(t *testing.T) {
	// Unseeded threshold-2 contagion on K_4: both all-0 and all-1 are
	// stable, so by Theorem 3.1 it is not label 3-stabilizing; the
	// verifier confirms on this small instance.
	g := graph.Clique(4)
	c := &Contagion{Graph: g, Threshold: 2}
	p, err := c.Protocol()
	if err != nil {
		t.Fatal(err)
	}
	x := make(core.Input, 4)
	if !core.IsStable(p, x, core.UniformLabeling(g, 0)) ||
		!core.IsStable(p, x, core.UniformLabeling(g, 1)) {
		t.Fatal("all-0 and all-1 must both be stable")
	}
	if testing.Short() {
		t.Skip("verifier sweep; skip in -short")
	}
	dec, err := verify.LabelRStabilizing(p, x, 3, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Stabilizing {
		t.Error("two equilibria: cannot be label 3-stabilizing")
	}
}

func TestContagionValidation(t *testing.T) {
	if _, err := (&Contagion{Graph: nil, Threshold: 1}).Protocol(); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := (&Contagion{Graph: graph.Clique(3), Threshold: 0}).Protocol(); err == nil {
		t.Error("zero threshold should fail")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{2, 1, 0}
	if !p.Tail().Equal(Path{1, 0}) {
		t.Error("Tail broken")
	}
	if p.Equal(Path{2, 1}) || !p.Equal(Path{2, 1, 0}) {
		t.Error("Equal broken")
	}
}
