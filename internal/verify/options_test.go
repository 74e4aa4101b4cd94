package verify_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"stateless/internal/core"
	"stateless/internal/protocols"
	"stateless/internal/verify"
)

// TestContextCancel checks that a pre-canceled context aborts the check
// with ErrCanceled (wrapping context.Canceled) before any verdict is
// produced, for both store backends.
func TestContextCancel(t *testing.T) {
	p := uniformRingProtocol(t, 5, 3, 42)
	x := make(core.Input, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, store := range []verify.StoreKind{verify.StoreDense, verify.StoreHash} {
		_, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
			Store: store, Context: ctx,
		})
		if !errors.Is(err, verify.ErrCanceled) {
			t.Fatalf("store=%v: got %v, want ErrCanceled", store, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("store=%v: error %v does not wrap context.Canceled", store, err)
		}
	}
}

// countdownCtx is a context that reports cancellation from its n-th Err()
// call onward: a deterministic way to land a cancellation mid-run (the
// engine checks Err once before seeding and once per expanded batch),
// independent of how fast the exploration happens to be.
type countdownCtx struct {
	context.Context
	calls, n int32
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestContextCancelMidRun cancels after the first batch check — i.e. while
// the worker pool is expanding — and checks the run aborts with ErrCanceled
// rather than finishing or deadlocking.
func TestContextCancelMidRun(t *testing.T) {
	p := uniformRingProtocol(t, 6, 3, 7)
	x := make(core.Input, 6)
	ctx := &countdownCtx{Context: context.Background(), n: 2}
	_, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Workers: 1, // single worker: Err() call order is deterministic
		Context: ctx,
	})
	if !errors.Is(err, verify.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestProgressSnapshots checks that Options.Progress receives at least the
// final snapshot and that it is consistent with the decision: every
// interned state was expanded, the frontier drained, and the rate is
// populated.
func TestProgressSnapshots(t *testing.T) {
	p := uniformRingProtocol(t, 5, 3, 9)
	x := make(core.Input, 5)
	var snaps []verify.Progress
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	dec, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
		Workers: 2,
		Progress: func(pr verify.Progress) {
			<-mu
			snaps = append(snaps, pr)
			mu <- struct{}{}
		},
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	final := snaps[len(snaps)-1]
	if final.States != int64(dec.States) {
		t.Fatalf("final snapshot states %d, decision states %d", final.States, dec.States)
	}
	if final.Expanded != final.States {
		t.Fatalf("final snapshot: expanded %d != states %d", final.Expanded, final.States)
	}
	if final.Frontier != 0 {
		t.Fatalf("final snapshot: frontier %d, want 0", final.Frontier)
	}
	if final.StatesPerSec <= 0 || final.Elapsed <= 0 {
		t.Fatalf("final snapshot: rate %v elapsed %v, want positive", final.StatesPerSec, final.Elapsed)
	}
}

// TestSpillBudgetNeedsDir checks that a frontier budget without a spill
// directory is rejected for every store, since every store spills.
func TestSpillBudgetNeedsDir(t *testing.T) {
	p := uniformRingProtocol(t, 5, 3, 42)
	x := make(core.Input, 5)
	for _, store := range []verify.StoreKind{verify.StoreDense, verify.StoreHash, verify.StoreBitstate} {
		_, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{
			Store: store, SpillMemBytes: 1 << 20,
		})
		if err == nil {
			t.Fatalf("store=%v: spill budget without a spill dir accepted", store)
		}
	}
}

// TestInputLengthChecked checks that every entry point rejects an input
// vector shorter or longer than the node count instead of panicking or
// silently ignoring the tail.
func TestInputLengthChecked(t *testing.T) {
	p, err := protocols.CopyRing(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 5} {
		x := make(core.Input, n)
		if _, err := verify.LabelRStabilizing(p, x, 2, 0); err == nil {
			t.Errorf("len(x)=%d: LabelRStabilizing accepted", n)
		}
		if _, err := verify.OutputRStabilizing(p, x, 2, 0); err == nil {
			t.Errorf("len(x)=%d: OutputRStabilizing accepted", n)
		}
		if _, err := verify.StableLabelings(p, x, 1<<16, 1); err == nil {
			t.Errorf("len(x)=%d: StableLabelings accepted", n)
		}
		if _, err := verify.StablePerNodeLabelings(p, x, 1<<16, 1); err == nil {
			t.Errorf("len(x)=%d: StablePerNodeLabelings accepted", n)
		}
	}
}

// TestBitstateOptionsBounded checks that a bitstate size or hash count
// past its maximum is an error, while ≤ 0 still selects the default. The
// bounds are checked whatever the store, before anything is allocated; the
// oversized bit arrays run under the hash store, so that a missing check
// could not attempt the 2^40-bit (128 GiB) array a bitstate store clamps
// them to.
func TestBitstateOptionsBounded(t *testing.T) {
	p := uniformRingProtocol(t, 4, 2, 42)
	x := make(core.Input, 4)
	for _, opts := range []verify.Options{
		{Store: verify.StoreHash, BitstateBits: 70},
		{Store: verify.StoreHash, BitstateBits: 41},
		{Store: verify.StoreBitstate, BitstateK: 1000},
		{Store: verify.StoreBitstate, BitstateK: 9},
	} {
		if _, err := verify.LabelRStabilizingOpts(p, x, 2, opts); err == nil {
			t.Errorf("bits=%d k=%d accepted", opts.BitstateBits, opts.BitstateK)
		}
	}
	dec, err := verify.LabelRStabilizingOpts(p, x, 2, verify.Options{Store: verify.StoreBitstate, BitstateBits: -1, BitstateK: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dec.BitstateK != verify.DefaultBitstateK {
		t.Errorf("k ≤ 0 ran with k=%d, want the default %d", dec.BitstateK, verify.DefaultBitstateK)
	}
}
