package enc_test

import (
	"math/rand/v2"
	"testing"

	"stateless/internal/core"
	"stateless/internal/enc"
)

// TestPackUnpackRoundTrip is the codec's core property: Pack then Unpack is
// the identity over random states, for every label-space size 2..9 —
// including the non-power-of-two sizes whose bit width over-covers the
// space — and for assorted edge/node counts and countdown bounds.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for size := uint64(2); size <= 9; size++ {
		space := core.MustLabelSpace(size)
		for _, m := range []int{1, 3, 8, 20, 67} {
			for _, n := range []int{0, 1, 5, 13} {
				for _, r := range []int{1, 3, 7} {
					codec := enc.NewStateCodec(space, m, n, r, true)
					var packed []uint64
					for trial := 0; trial < 25; trial++ {
						l := make(core.Labeling, m)
						for i := range l {
							l[i] = core.Label(rng.Uint64N(size))
						}
						cd := make([]uint8, n)
						out := make([]core.Bit, n)
						for i := range cd {
							cd[i] = uint8(1 + rng.IntN(r))
							out[i] = core.Bit(rng.IntN(2))
						}
						packed = codec.Pack(l, cd, out, packed)
						if len(packed) != codec.Words() {
							t.Fatalf("size=%d m=%d n=%d r=%d: packed to %d words, want %d",
								size, m, n, r, len(packed), codec.Words())
						}
						gotL := codec.UnpackLabels(packed, nil)
						if !gotL.Equal(l) {
							t.Fatalf("size=%d m=%d n=%d r=%d: labels %v -> %v", size, m, n, r, l, gotL)
						}
						gotCd := codec.UnpackCountdown(packed, nil)
						for i := range cd {
							if gotCd[i] != cd[i] {
								t.Fatalf("size=%d m=%d n=%d r=%d: countdown %v -> %v", size, m, n, r, cd, gotCd)
							}
						}
						gotOut := codec.UnpackOutputs(packed, nil)
						for i := range out {
							if gotOut[i] != out[i] {
								t.Fatalf("size=%d m=%d n=%d r=%d: outputs %v -> %v", size, m, n, r, out, gotOut)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackInjective cross-checks that distinct labelings pack to distinct
// keys (the property interning relies on), via exhaustive enumeration of a
// small space.
func TestPackInjective(t *testing.T) {
	space := core.MustLabelSpace(3)
	const m = 5
	codec := enc.NewLabelCodec(space, m)
	tab := enc.NewTable(codec.Words(), 0)
	var key []uint64
	count := 0
	var walk func(l core.Labeling, i int)
	walk = func(l core.Labeling, i int) {
		if i == m {
			key = codec.PackLabels(l, key)
			if _, fresh := tab.Intern(key); !fresh {
				t.Fatalf("labeling %v collided", l)
			}
			count++
			return
		}
		for v := uint64(0); v < space.Size(); v++ {
			l[i] = core.Label(v)
			walk(l, i+1)
		}
	}
	walk(make(core.Labeling, m), 0)
	if count != 243 || tab.Len() != 243 {
		t.Fatalf("interned %d/%d states, want 243", count, tab.Len())
	}
}

// TestSectionComparisons exercises the canonical orderings on states that
// agree on one section but not another.
func TestSectionComparisons(t *testing.T) {
	space := core.MustLabelSpace(5)
	codec := enc.NewStateCodec(space, 7, 4, 3, true)

	l1 := core.Labeling{4, 0, 3, 2, 1, 0, 4}
	l2 := core.Labeling{4, 0, 3, 2, 1, 0, 3}
	cdA := []uint8{1, 2, 3, 1}
	cdB := []uint8{3, 3, 1, 2}
	outA := []core.Bit{1, 0, 1, 0}
	outB := []core.Bit{0, 1, 1, 0}

	sameLabels1 := codec.Pack(l1, cdA, outA, nil)
	sameLabels2 := codec.Pack(l1, cdB, outB, nil)
	diffLabels := codec.Pack(l2, cdA, outA, nil)

	if codec.CompareLabels(sameLabels1, sameLabels2) != 0 {
		t.Fatal("CompareLabels must ignore non-label sections")
	}
	if c1, c2 := codec.CompareLabels(sameLabels1, diffLabels), codec.CompareLabels(diffLabels, sameLabels1); c1 == 0 || c2 == 0 || c1 == c2 {
		t.Fatalf("CompareLabels must totally order distinct labelings, got %d/%d", c1, c2)
	}
	if codec.CompareOutputs(sameLabels1, diffLabels) != 0 {
		t.Fatal("CompareOutputs must ignore non-output sections")
	}
	if c1, c2 := codec.CompareOutputs(sameLabels1, sameLabels2), codec.CompareOutputs(sameLabels2, sameLabels1); c1 == 0 || c2 == 0 || c1 == c2 {
		t.Fatalf("CompareOutputs must totally order distinct output vectors, got %d/%d", c1, c2)
	}
}

// TestTableGrowth pushes enough keys through one table to force several
// rehashes and checks IDs stay stable and lookups keep resolving.
func TestTableGrowth(t *testing.T) {
	tab := enc.NewTable(2, 0)
	key := make([]uint64, 2)
	const total = 10000
	for i := 0; i < total; i++ {
		key[0], key[1] = uint64(i), uint64(i)*0x9e3779b9
		id, fresh := tab.Intern(key)
		if !fresh || id != i {
			t.Fatalf("insert %d: got id=%d fresh=%v", i, id, fresh)
		}
	}
	for i := 0; i < total; i++ {
		key[0], key[1] = uint64(i), uint64(i)*0x9e3779b9
		id, fresh := tab.Intern(key)
		if fresh || id != i {
			t.Fatalf("lookup %d: got id=%d fresh=%v", i, id, fresh)
		}
		at := tab.At(id)
		if at[0] != key[0] || at[1] != key[1] {
			t.Fatalf("At(%d) = %v, want %v", id, at, key)
		}
	}
	if tab.Len() != total {
		t.Fatalf("Len = %d, want %d", tab.Len(), total)
	}
}

// TestTableSequentialIDs pins what the simulators' cycle detection relies
// on: with hits interleaved between inserts, every fresh key gets the next
// sequential ID (Len()-1 after the insert), and a repeated key returns its
// first ID with fresh false.
func TestTableSequentialIDs(t *testing.T) {
	codec := enc.NewLabelCodec(core.BinarySpace(), 8)
	tab := enc.NewTable(codec.Words(), 0)
	l := make(core.Labeling, codec.M())
	var key []uint64
	first := map[int]int{} // labeling value → ID
	for i := 0; i < 20; i++ {
		v := i%2*2 + i/4%2 // 0, 2, 0, 2, 1, 3, 1, 3, 0, ...
		l[0], l[1] = core.Label(v&1), core.Label(v>>1)
		key = codec.PackLabels(l, key)
		id, fresh := tab.Intern(key)
		want, seen := first[v]
		if fresh == seen {
			t.Fatalf("step %d: fresh = %v for a key seen = %v", i, fresh, seen)
		}
		if seen && id != want {
			t.Fatalf("step %d: repeated key got ID %d, first ID %d", i, id, want)
		}
		if fresh && id != tab.Len()-1 {
			t.Fatalf("step %d: fresh ID %d is not sequential (Len %d)", i, id, tab.Len())
		}
		first[v] = id
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
}

// TestTableReset pins Reset's contract: the table empties, IDs restart at
// 0, earlier keys come back fresh, and the slot array and arena are reused,
// so refilling a reset table to its old size allocates nothing.
func TestTableReset(t *testing.T) {
	tab := enc.NewTable(2, 0)
	key := make([]uint64, 2)
	// fill interns keys from..to-1, expecting fresh IDs from firstID on.
	fill := func(from, to, firstID int) {
		t.Helper()
		for i := from; i < to; i++ {
			key[0], key[1] = uint64(i), uint64(i)*0x9e3779b9
			if id, fresh := tab.Intern(key); !fresh || id != firstID+i-from {
				t.Fatalf("insert %d: got id=%d fresh=%v, want id=%d fresh", i, id, fresh, firstID+i-from)
			}
		}
	}
	const total = 1000
	fill(0, total, 0)
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tab.Len())
	}
	key[0], key[1] = 0, 0
	if _, ok := tab.Lookup(key); ok {
		t.Fatal("key interned before Reset is still present")
	}
	// The old keys come back fresh, numbered from 0 in the new order.
	fill(total/2, total, 0)
	fill(0, total/2, total/2)
	if allocs := testing.AllocsPerRun(10, func() {
		tab.Reset()
		fill(0, total, 0)
	}); allocs != 0 {
		t.Fatalf("refilling a reset table allocated %.0f times per run, want 0", allocs)
	}
}
