package sim_test

import (
	"errors"
	"testing"

	"stateless/internal/core"
	"stateless/internal/graph"
	"stateless/internal/protocols"
	"stateless/internal/schedule"
	"stateless/internal/sim"
)

// TestRunRejectsMalformedSchedules pins that a schedule with a period
// below 1, or one that activates a node outside the graph by the step it
// is used, fails with ErrBadSchedule instead of panicking, with and
// without cycle detection.
func TestRunRejectsMalformedSchedules(t *testing.T) {
	p, err := protocols.CopyRing(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	x := make(core.Input, g.N())
	l0 := core.Labeling{0, 1, 2, 0, 1} // not stable: no run ends at step 1
	for _, tc := range []struct {
		name  string
		sched schedule.Schedule
	}{
		{"synchronous-too-wide", schedule.Synchronous{N: 10}},
		{"roundrobin-zero", schedule.RoundRobin{N: 0}},
		{"scripted-empty", &schedule.Scripted{}},
		{"scripted-node-7", &schedule.Scripted{Steps: [][]graph.NodeID{{0}, {7}}}},
	} {
		for _, detect := range []bool{true, false} {
			_, err := sim.Run(p, x, l0, tc.sched, sim.Options{MaxSteps: 100, DetectCycles: detect})
			if !errors.Is(err, sim.ErrBadSchedule) {
				t.Errorf("%s detect=%v: err = %v, want ErrBadSchedule", tc.name, detect, err)
			}
		}
	}
	// An aperiodic schedule is checked at every step, not one period.
	_, err = sim.Run(p, x, l0, lateBadNode{at: 50}, sim.Options{MaxSteps: 100})
	if !errors.Is(err, sim.ErrBadSchedule) {
		t.Errorf("aperiodic: err = %v, want ErrBadSchedule", err)
	}
}

// lateBadNode is an aperiodic schedule that activates node 0 until step at
// and node 7 from then on.
type lateBadNode struct{ at int }

func (s lateBadNode) Activated(t int, dst []graph.NodeID) []graph.NodeID {
	if t >= s.at {
		return append(dst, 7)
	}
	return append(dst, 0)
}
