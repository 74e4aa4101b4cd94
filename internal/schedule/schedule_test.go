package schedule

import (
	"testing"
	"testing/quick"

	"stateless/internal/graph"
)

func collect(s Schedule, steps int) [][]graph.NodeID {
	out := make([][]graph.NodeID, steps)
	for t := 1; t <= steps; t++ {
		out[t-1] = s.Activated(t, nil)
	}
	return out
}

func TestSynchronous(t *testing.T) {
	s := Synchronous{N: 4}
	for _, step := range collect(s, 5) {
		if len(step) != 4 {
			t.Fatalf("synchronous step has %d nodes, want 4", len(step))
		}
	}
	// Synchronous is 1-fair.
	a := NewAuditor(4, 1)
	for _, step := range collect(s, 10) {
		if err := a.Observe(step); err != nil {
			t.Fatalf("synchronous schedule not 1-fair: %v", err)
		}
	}
}

func TestRoundRobin(t *testing.T) {
	s := RoundRobin{N: 3}
	steps := collect(s, 6)
	want := []graph.NodeID{0, 1, 2, 0, 1, 2}
	for i, step := range steps {
		if len(step) != 1 || step[0] != want[i] {
			t.Fatalf("step %d = %v, want [%d]", i+1, step, want[i])
		}
	}
	// Round robin on n nodes is n-fair but not (n-1)-fair.
	a := NewAuditor(3, 3)
	for _, step := range steps {
		if err := a.Observe(step); err != nil {
			t.Fatalf("round robin should be 3-fair: %v", err)
		}
	}
	a2 := NewAuditor(3, 2)
	var violated bool
	for _, step := range steps {
		if err := a2.Observe(step); err != nil {
			violated = true
			break
		}
	}
	if !violated {
		t.Error("round robin on 3 nodes must violate 2-fairness")
	}
}

func TestScripted(t *testing.T) {
	if _, err := NewScripted(nil); err == nil {
		t.Error("empty script should fail")
	}
	if _, err := NewScripted([][]graph.NodeID{{0}, {}}); err == nil {
		t.Error("empty activation set should fail")
	}
	s, err := NewScripted([][]graph.NodeID{{0, 1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	steps := collect(s, 4)
	if len(steps[0]) != 2 || len(steps[1]) != 1 || len(steps[2]) != 2 {
		t.Errorf("script should repeat cyclically: %v", steps)
	}
}

func TestRandomRFairValidation(t *testing.T) {
	if _, err := NewRandomRFair(0, 1, 0.5, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewRandomRFair(3, 0, 0.5, 1); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := NewRandomRFair(3, 2, 1.5, 1); err == nil {
		t.Error("p>1 should fail")
	}
}

func TestRandomRFairIsRFair(t *testing.T) {
	// Property: for any seed, n, r, the generated schedule passes the
	// r-fairness audit over a long horizon.
	f := func(seed uint64, nRaw, rRaw, pRaw uint8) bool {
		n := 1 + int(nRaw%8)
		r := 1 + int(rRaw%6)
		p := float64(pRaw%90) / 100
		s, err := NewRandomRFair(n, r, p, seed)
		if err != nil {
			return false
		}
		a := NewAuditor(n, r)
		var buf []graph.NodeID
		for t := 1; t <= 200; t++ {
			buf = s.Activated(t, buf[:0])
			if len(buf) == 0 {
				return false
			}
			if err := a.Observe(buf); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRandomRFairDeterministic(t *testing.T) {
	mk := func() [][]graph.NodeID {
		s, _ := NewRandomRFair(5, 3, 0.4, 42)
		return collect(s, 50)
	}
	a, b := mk(), mk()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("step %d: nondeterministic schedule", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("step %d: nondeterministic schedule", i)
			}
		}
	}
}

func TestRandomRFairOutOfOrderPanics(t *testing.T) {
	s, _ := NewRandomRFair(3, 2, 0.5, 1)
	s.Activated(1, nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order query should panic")
		}
	}()
	s.Activated(5, nil)
}

func TestAuditorMaxIdle(t *testing.T) {
	a := NewAuditor(3, 10)
	steps := [][]graph.NodeID{{0}, {0}, {0, 1, 2}}
	for _, s := range steps {
		if err := a.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	if a.MaxIdle() != 0 {
		t.Errorf("MaxIdle = %d, want 0 after full activation", a.MaxIdle())
	}
	_ = a.Observe([]graph.NodeID{0})
	if a.MaxIdle() != 1 {
		t.Errorf("MaxIdle = %d, want 1", a.MaxIdle())
	}
}

// Single-node graphs: every schedule kind degenerates to "activate node 0
// every step" and stays 1-fair.
func TestSingleNodeSchedules(t *testing.T) {
	rfair, err := NewRandomRFair(1, 3, 0.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	scripted, err := NewScripted([][]graph.NodeID{{0}})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Schedule{
		"synchronous": Synchronous{N: 1},
		"roundrobin":  RoundRobin{N: 1},
		"rfair":       rfair,
		"scripted":    scripted,
	} {
		a := NewAuditor(1, 1)
		for t2, step := range collect(s, 20) {
			if len(step) != 1 || step[0] != 0 {
				t.Fatalf("%s step %d = %v, want [0]", name, t2+1, step)
			}
			if err := a.Observe(step); err != nil {
				t.Fatalf("%s not 1-fair on a single node: %v", name, err)
			}
		}
	}
}

// RandomRFair must emit a nonempty set even when p = 0 forces the random
// draws to skip everyone (the forced-activation fallback).
func TestRandomRFairNeverEmpty(t *testing.T) {
	s, err := NewRandomRFair(5, 100, 0.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf []graph.NodeID
	for t2 := 1; t2 <= 50; t2++ {
		buf = s.Activated(t2, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("step %d: empty activation set", t2)
		}
	}
}

// An empty observed activation set still advances every idle counter; the
// auditor must flag the violation once the window closes, not crash.
func TestAuditorEmptyActivationSet(t *testing.T) {
	a := NewAuditor(3, 2)
	if err := a.Observe(nil); err != nil {
		t.Fatalf("first empty step should pass: %v", err)
	}
	if a.MaxIdle() != 1 {
		t.Fatalf("MaxIdle = %d after one empty step, want 1", a.MaxIdle())
	}
	if err := a.Observe([]graph.NodeID{}); err == nil {
		t.Error("two empty steps must violate 2-fairness for every node")
	}
}

func TestAuditorZeroNodes(t *testing.T) {
	a := NewAuditor(0, 1)
	if err := a.Observe(nil); err != nil {
		t.Fatalf("auditing an empty graph should be a no-op: %v", err)
	}
	if a.MaxIdle() != 0 {
		t.Fatalf("MaxIdle = %d on an empty graph, want 0", a.MaxIdle())
	}
}

func TestAuditorViolation(t *testing.T) {
	a := NewAuditor(2, 2)
	if err := a.Observe([]graph.NodeID{0}); err != nil {
		t.Fatalf("first idle step should pass: %v", err)
	}
	if err := a.Observe([]graph.NodeID{0}); err == nil {
		t.Error("node 1 idle for 2 steps must violate 2-fairness")
	}
}

// Period is what cycle detection folds the phase by: one step for the
// synchronous schedule, one per node for round robin, the script length
// for a script.
func TestPeriods(t *testing.T) {
	script, err := NewScripted([][]graph.NodeID{{0}, {1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    Periodic
		want int
	}{
		{Synchronous{N: 5}, 1},
		{RoundRobin{N: 5}, 5},
		{script, 3},
	} {
		if got := tc.s.Period(); got != tc.want {
			t.Errorf("%T: Period() = %d, want %d", tc.s, got, tc.want)
		}
	}
}
