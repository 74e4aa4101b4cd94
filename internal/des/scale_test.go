package des

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/protocols"
)

// The acceptance-criteria scale test: a 1,000,000-node SaturatingRing under
// churn stabilizes within a 2 GiB budget, and because quiescent nodes cost
// nothing the event count stays proportional to the fault footprint, not n.
func TestMillionNodeRingUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node scale test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("million-node scale test skipped under -race (instrumentation overhead)")
	}
	const n = 1 << 20
	const sigma = 8
	p, err := protocols.SaturatingRing(n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, n)
	stable := core.UniformLabeling(g, core.Label(sigma-1))
	rt, err := New(p, x, stable, syncDaemon(g.N()), Config{AssumeClean: true})
	if err != nil {
		t.Fatal(err)
	}

	// Churn: 32 crash/rejoin cycles spread over 64 rounds, each rejoining
	// with adversarially resampled out-labels.
	rng := rand.New(rand.NewPCG(42, 42))
	for i := 0; i < 32; i++ {
		v := graph.NodeID(rng.Uint64N(n))
		down := uint64(2*i) * TicksPerRound
		up := down + 2*TicksPerRound + rng.Uint64N(TicksPerRound)
		rt.ScheduleFault(down+1, func(rt *Runtime) { rt.Crash(v) })
		rt.ScheduleFault(up, func(rt *Runtime) { rt.Rejoin(v, RejoinResample, rng) })
	}

	res, err := rt.Run(context.Background(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatal("million-node ring did not stabilize after churn")
	}
	if !rt.Labels().Equal(stable) {
		t.Fatal("did not return to the saturated fixed point")
	}
	// Quiescence: 32 localized faults on a sigma=8 ring disturb O(32·sigma)
	// nodes; if every node were activated per round we'd see >= n events.
	if res.Activations > 100_000 {
		t.Fatalf("activations = %d for 32 localized faults; quiescent nodes are being charged", res.Activations)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const budget = 2 << 30
	if ms.Sys > budget {
		t.Fatalf("runtime.MemStats.Sys = %d bytes, over the 2 GiB budget", ms.Sys)
	}
	t.Logf("n=%d activations=%d reactions=%d faults=%d heap_max=%d end_round=%.1f sys=%dMiB",
		n, res.Activations, res.Reactions, res.Faults, res.MaxHeap,
		Rounds(res.End), ms.Sys>>20)
}
