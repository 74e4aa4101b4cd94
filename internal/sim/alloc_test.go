package sim_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"stateless/internal/core"
	"stateless/internal/protocols"
	"stateless/internal/sim"
)

// A synchronous run's cycle-detection table grows with the run: an 8-node
// ring that stabilizes in a few dozen steps must not pay for a table sized
// by the labeling width (a 2^16-slot direct index costs 256 KiB per run).
func TestRunSynchronousAllocatesByRunLength(t *testing.T) {
	const (
		runs     = 200
		maxBytes = 16 << 10
	)
	p, err := protocols.SaturatingRing(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	rng := rand.New(rand.NewPCG(1, 1))
	l0s := make([]core.Labeling, runs)
	for i := range l0s {
		l0s[i] = core.RandomLabeling(g, p.Space(), rng)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, l0 := range l0s {
		res, err := sim.RunSynchronous(p, x, l0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != sim.LabelStable {
			t.Fatalf("status %v, want label-stable", res.Status)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
		t.Fatalf("RunSynchronous allocated %d bytes per run, want ≤ %d", per, maxBytes)
	}
}
