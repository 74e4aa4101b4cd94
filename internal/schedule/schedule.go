// Package schedule implements the activation schedules of §2.1: functions
// σ : N⁺ → 2^[n] mapping each time step to the nonempty set of nodes
// activated at that step. It provides synchronous (1-fair), round-robin,
// seeded-random r-fair, and scripted/adversarial schedules, plus fairness
// auditing utilities.
package schedule

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"stateless/internal/graph"
)

// Schedule yields, for each time step t = 1, 2, ..., the set of nodes
// activated at t. Implementations must be deterministic given their
// construction parameters (seeded randomness included) so that simulation
// runs are reproducible.
type Schedule interface {
	// Activated appends the nodes activated at step t to dst and returns
	// the extended slice. The result must be nonempty.
	Activated(t int, dst []graph.NodeID) []graph.NodeID
}

// Periodic is a deterministic schedule whose activation set at step t
// depends only on t mod Period(). Under a periodic schedule a labeling
// that recurs at the same phase recurs forever, so configuration-cycle
// detection (internal/sim) is sound exactly for these schedules.
type Periodic interface {
	Schedule
	Period() int
}

// Synchronous is the 1-fair schedule: every node activates at every step.
// This is the setting of Part II of the paper (computational power).
type Synchronous struct {
	N int
}

var _ Periodic = Synchronous{}

// Period implements Periodic: every step is the same.
func (s Synchronous) Period() int { return 1 }

// Activated implements Schedule.
func (s Synchronous) Activated(_ int, dst []graph.NodeID) []graph.NodeID {
	for i := 0; i < s.N; i++ {
		dst = append(dst, graph.NodeID(i))
	}
	return dst
}

// RoundRobin activates exactly one node per step in cyclic order; it is
// n-fair but not (n-1)-fair.
type RoundRobin struct {
	N int
}

var _ Periodic = RoundRobin{}

// Period implements Periodic: one step per node.
func (s RoundRobin) Period() int { return s.N }

// Activated implements Schedule.
func (s RoundRobin) Activated(t int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, graph.NodeID((t-1)%s.N))
}

// Scripted replays a fixed finite script of activation sets, repeating it
// cyclically. It is how adversarial schedules from the paper's proofs
// (Claim B.8's oscillation schedule, Example 1's two-node schedule) are
// expressed.
type Scripted struct {
	Steps [][]graph.NodeID
}

var _ Periodic = (*Scripted)(nil)

// Period implements Periodic: the script length.
func (s *Scripted) Period() int { return len(s.Steps) }

// NewScripted builds a scripted schedule, validating nonemptiness.
func NewScripted(steps [][]graph.NodeID) (*Scripted, error) {
	if len(steps) == 0 {
		return nil, errors.New("schedule: empty script")
	}
	for i, s := range steps {
		if len(s) == 0 {
			return nil, fmt.Errorf("schedule: empty activation set at script step %d", i)
		}
	}
	return &Scripted{Steps: steps}, nil
}

// Activated implements Schedule.
func (s *Scripted) Activated(t int, dst []graph.NodeID) []graph.NodeID {
	return append(dst, s.Steps[(t-1)%len(s.Steps)]...)
}

// RandomRFair is a seeded random schedule guaranteed r-fair: at every step
// each node activates independently with probability P, and additionally
// any node whose inactivity countdown would expire is forcibly activated,
// so every node runs at least once in every r consecutive steps.
type RandomRFair struct {
	n     int
	r     int
	p     float64
	rng   *rand.Rand
	idle  []int // steps since last activation
	nextT int   // next expected query step (schedules are queried in order)
}

var _ Schedule = (*RandomRFair)(nil)

// NewRandomRFair builds an r-fair random schedule over n nodes. p is the
// per-node independent activation probability; seed makes it reproducible.
func NewRandomRFair(n, r int, p float64, seed uint64) (*RandomRFair, error) {
	if n <= 0 {
		return nil, errors.New("schedule: n must be positive")
	}
	if r <= 0 {
		return nil, errors.New("schedule: r must be positive")
	}
	if p < 0 || p > 1 {
		return nil, errors.New("schedule: p must be in [0,1]")
	}
	return &RandomRFair{
		n:     n,
		r:     r,
		p:     p,
		rng:   rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		idle:  make([]int, n),
		nextT: 1,
	}, nil
}

// Activated implements Schedule. Steps must be queried in increasing order
// t = 1, 2, ... (the simulator does); out-of-order queries panic, as the
// schedule is stateful for fairness accounting.
func (s *RandomRFair) Activated(t int, dst []graph.NodeID) []graph.NodeID {
	if t != s.nextT {
		panic(fmt.Sprintf("schedule: RandomRFair queried out of order: got t=%d want %d", t, s.nextT))
	}
	s.nextT++
	start := len(dst)
	for i := 0; i < s.n; i++ {
		if s.idle[i]+1 >= s.r || s.rng.Float64() < s.p {
			dst = append(dst, graph.NodeID(i))
			s.idle[i] = 0
		} else {
			s.idle[i]++
		}
	}
	if len(dst) == start {
		// Activation sets must be nonempty; activate a random node.
		i := s.rng.IntN(s.n)
		dst = append(dst, graph.NodeID(i))
		s.idle[i] = 0
	}
	return dst
}

// Auditor checks r-fairness of an observed activation sequence: every node
// must be activated at least once in every window of r consecutive steps.
type Auditor struct {
	n    int
	r    int
	idle []int
	t    int
}

// NewAuditor returns a fairness auditor for n nodes and window r.
func NewAuditor(n, r int) *Auditor {
	return &Auditor{n: n, r: r, idle: make([]int, n)}
}

// Observe records one step's activation set. It returns an error the first
// time some node's inactivity reaches r steps (an r-fairness violation).
func (a *Auditor) Observe(active []graph.NodeID) error {
	a.t++
	seen := make(map[graph.NodeID]bool, len(active))
	for _, v := range active {
		seen[v] = true
	}
	for i := 0; i < a.n; i++ {
		if seen[graph.NodeID(i)] {
			a.idle[i] = 0
			continue
		}
		a.idle[i]++
		if a.idle[i] >= a.r {
			return fmt.Errorf("schedule: node %d inactive for %d ≥ r=%d steps ending at t=%d",
				i, a.idle[i], a.r, a.t)
		}
	}
	return nil
}

// MaxIdle returns the largest current inactivity counter (for reporting
// how close a schedule came to violating fairness).
func (a *Auditor) MaxIdle() int {
	m := 0
	for _, v := range a.idle {
		if v > m {
			m = v
		}
	}
	return m
}
