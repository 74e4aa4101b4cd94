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
// Nor may a run that ends on a detected cycle, with activations still
// queued, keep the runtime's 386 KiB timing wheel from going back to its
// pool: 200 oscillating copy-ring runs are held to the same bound.
func TestRunSynchronousAllocatesByRunLength(t *testing.T) {
	const (
		runs     = 200
		maxBytes = 16 << 10
	)
	sat, err := protocols.SaturatingRing(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := protocols.CopyRing(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *core.Protocol
		want sim.Status
	}{{sat, sim.LabelStable}, {cp, sim.Oscillating}} {
		g := tc.p.Graph()
		x := make(core.Input, g.N())
		rng := rand.New(rand.NewPCG(1, 1))
		l0s := make([]core.Labeling, runs)
		for i := range l0s {
			l0s[i] = core.RandomLabeling(g, tc.p.Space(), rng)
			if tc.want == sim.Oscillating {
				l0s[i][0], l0s[i][1] = 0, 1 // labels of both parities travel round the ring
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, l0 := range l0s {
			res, err := sim.RunSynchronous(tc.p, x, l0, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != tc.want {
				t.Fatalf("status %v, want %v", res.Status, tc.want)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
			t.Fatalf("%v runs: RunSynchronous allocated %d bytes per run, want ≤ %d", tc.want, per, maxBytes)
		}
	}
}
