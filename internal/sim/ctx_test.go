package sim_test

import (
	"context"
	"errors"
	"testing"

	"stateless/internal/core"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

func TestRunCanceled(t *testing.T) {
	p, err := protocols.SaturatingRing(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	l0 := core.UniformLabeling(g, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sim.Run(p, x, l0, schedule.Synchronous{N: g.N()}, sim.Options{Context: ctx})
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled wrapping context.Canceled", err)
	}
}

func TestRunNilContextStillWorks(t *testing.T) {
	p, err := protocols.SaturatingRing(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	res, err := sim.RunSynchronous(p, make(core.Input, g.N()), core.UniformLabeling(g, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sim.LabelStable {
		t.Fatalf("status %v, want label-stable", res.Status)
	}
}

func TestRoundComplexityCtxCanceled(t *testing.T) {
	p, err := protocols.SaturatingRing(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	inputs := []core.Input{make(core.Input, g.N())}
	labelings := []core.Labeling{core.UniformLabeling(g, 0), core.UniformLabeling(g, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RoundComplexity(ctx, p, inputs, labelings, 100, 2, nil); !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	// And the uncanceled path agrees across worker counts.
	a, err := sim.RoundComplexity(context.Background(), p, inputs, labelings, 100, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RoundComplexity(context.Background(), p, inputs, labelings, 100, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("RoundComplexity on 2 workers = %d, on 1 = %d", a, b)
	}
}
