package des

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"stateless/internal/core"
	"stateless/internal/protocols"
)

// A run allocates no per-activation scratch: the activation batch is the
// drained wheel bucket and the write buffers are sized once in New, so an
// adversarial run of an 8192-node ring, whose batches reach thousands of
// nodes, allocates only what its wheel buckets grow by: about 18 bytes per
// node from an empty bucket pool, nothing from a warm one. Growing a batch
// slice and the write buffers by append cost 58–76 bytes per node here.
// Measured by TotalAlloc around Run alone; New is excluded.
func TestRunAllocatesNoBatchScratch(t *testing.T) {
	const (
		n        = 1 << 13
		maxBytes = 32 * n
	)
	p, err := protocols.SaturatingRing(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	l0 := core.RandomLabeling(g, p.Space(), rand.New(rand.NewPCG(1, 1)))
	rt, err := New(p, make(core.Input, n), l0, AdversarialGreedy{R: 4}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := rt.Run(context.Background(), 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatal("run did not stabilize")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Fatalf("Run allocated %d bytes, want ≤ %d", got, maxBytes)
	}
}
