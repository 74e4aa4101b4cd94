package experiments

import (
	"strings"
	"testing"
)

// The experiment suite is the reproduction's integration test: every table
// must regenerate, and the verdict columns must match the paper's claims.

func runExp(t *testing.T, f func() (Table, error)) Table {
	t.Helper()
	table, err := f()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r := table.Render(); !strings.Contains(r, table.ID) {
		t.Error("render missing ID")
	}
	return table
}

func TestE1MatchesTheorem31(t *testing.T) {
	table := runExp(t, E1CliqueStabilization)
	for _, row := range table.Rows {
		if row[1] != "2" {
			t.Errorf("n=%s: %s stable labelings, want 2", row[0], row[1])
		}
		if row[2] != "true" {
			t.Errorf("n=%s: must oscillate under (n-1)-fair schedule", row[0])
		}
		if row[3] != "true" {
			t.Errorf("n=%s: must stabilize for r<n-1", row[0])
		}
		if row[4] != "false" {
			t.Errorf("n=%s: must not be (n-1)-stabilizing", row[0])
		}
	}
}

func TestE2WithinBounds(t *testing.T) {
	table := runExp(t, E2TreeProtocol)
	for _, row := range table.Rows {
		measured, bound := atoi(t, row[3]), atoi(t, row[4])
		radius := atoi(t, row[2])
		if measured > bound {
			t.Errorf("%s: R=%d exceeds 2n=%d", row[0], measured, bound)
		}
		if measured < radius {
			t.Errorf("%s: R=%d below radius %d (Prop 2.1 violated!)", row[0], measured, radius)
		}
		if row[5] != row[6] {
			t.Errorf("%s: label bits %s ≠ n+1 = %s", row[0], row[5], row[6])
		}
	}
}

func TestE3Exact(t *testing.T) {
	table := runExp(t, E3UnidirectionalRounds)
	for _, row := range table.Rows {
		if row[2] != row[3] {
			t.Errorf("n=%s q=%s: measured %s ≠ n(q-1)=%s", row[0], row[1], row[2], row[3])
		}
	}
}

func TestE4WithinPaperBound(t *testing.T) {
	table := runExp(t, E4Counters)
	for _, row := range table.Rows {
		if atoi(t, row[2]) > atoi(t, row[3]) {
			t.Errorf("n=%s: stabilization %s exceeds paper's 4n=%s", row[0], row[2], row[3])
		}
		if row[4] != row[5] {
			t.Errorf("n=%s: label bits %s ≠ 2+3logD=%s", row[0], row[4], row[5])
		}
	}
}

func TestE5E6Equivalence(t *testing.T) {
	for _, f := range []func() (Table, error){E5BPRing, E6CircuitRing} {
		table := runExp(t, f)
		for _, row := range table.Rows {
			equal := false
			for _, c := range row {
				if c == "true" {
					equal = true
				}
			}
			if !equal {
				t.Errorf("%s row %v: equivalence failed", table.ID, row)
			}
		}
	}
}

func TestE7E8BoundsHold(t *testing.T) {
	t7 := runExp(t, E7CountingBound)
	for _, row := range t7.Rows {
		if row[4] != "true" {
			t.Errorf("counting argument failed at n=%s", row[0])
		}
	}
	t8 := runExp(t, E8FoolingSets)
	for _, row := range t8.Rows {
		if row[6] != "true" {
			t.Errorf("%s n=%s: fooling property failed", row[0], row[1])
		}
		if row[3] != row[4] {
			t.Errorf("%s n=%s: bound %s ≠ paper %s", row[0], row[1], row[3], row[4])
		}
	}
}

func TestE9IffHolds(t *testing.T) {
	table := runExp(t, E9CommHardness)
	for _, row := range table.Rows {
		if row[3] != "true" || row[4] != "true" {
			t.Errorf("%s n=%s: iff-property broken: %v", row[0], row[1], row)
		}
	}
}

func TestE10ChainAgrees(t *testing.T) {
	table := runExp(t, E10MetanodeReduction)
	for _, row := range table.Rows {
		if row[1] != row[2] || row[2] != row[3] {
			t.Errorf("%s: verdicts diverge along the reduction chain: %v", row[0], row)
		}
	}
}

func TestE11EquilibriumCounts(t *testing.T) {
	table := runExp(t, E11BestResponse)
	want := map[string]string{"good gadget": "1", "disagree": "2", "bad gadget": "0"}
	for _, row := range table.Rows {
		if row[1] != want[row[0]] {
			t.Errorf("%s: %s stable states, want %s", row[0], row[1], want[row[0]])
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		v = v*10 + int(c-'0')
	}
	return v
}

func TestE13Separation(t *testing.T) {
	table := runExp(t, E13AlmostStateless)
	want := map[string]string{
		"toggle clock (almost-stateless)": "true",
		"isolated node (stateless)":       "false",
		"clock → stateful → metanode":     "true",
	}
	for _, row := range table.Rows {
		if row[4] != want[row[0]] {
			t.Errorf("%s: oscillates=%s, want %s", row[0], row[4], want[row[0]])
		}
	}
}

func TestE14SymmetryBreaking(t *testing.T) {
	table := runExp(t, E14RandomizedSymmetryBreaking)
	for _, row := range table.Rows {
		if row[1] != "true" {
			t.Errorf("n=%s: deterministic variant broke symmetry", row[0])
		}
		if row[2] != "9/9" {
			t.Errorf("n=%s: randomized broke symmetry only %s", row[0], row[2])
		}
	}
}
