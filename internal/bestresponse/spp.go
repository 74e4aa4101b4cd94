// Package bestresponse realizes the paper's motivating applications as
// stateless protocols: interdomain routing with BGP (the Stable Paths
// Problem of Griffin–Shepherd–Wilfong [14]), and diffusion of technologies
// in social networks (Morris's contagion [23]). Best-response dynamics
// with unique best responses is a special case of stateless computation
// (§3), so Theorem 3.1's impossibility applies verbatim: multiple stable
// routing trees (DISAGREE) or multiple equilibria (contagion) imply
// non-convergence under (n−1)-fair schedules.
package bestresponse

import (
	"errors"
	"fmt"
	"math/bits"

	"stateless/internal/core"
	"stateless/internal/enc"
	"stateless/internal/graph"
)

// Path is an AS-level route: a sequence of node IDs ending at the
// destination node 0. A node's own permitted path starts with the node
// itself, e.g. Path{2, 1, 0} is "2 reaches 0 via 1".
type Path []int

// Equal compares two paths.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Tail returns the path with the first hop removed.
func (p Path) Tail() Path { return p[1:] }

// SPP is a Stable Paths Problem instance: node 0 is the destination; every
// other node has a ranked (best-first) list of permitted paths to 0.
type SPP struct {
	N         int
	Permitted [][]Path // Permitted[0] is ignored; Permitted[i] ranked best-first
}

// Validate checks instance well-formedness.
func (s *SPP) Validate() error {
	if s.N < 2 {
		return errors.New("bestresponse: need at least destination + one node")
	}
	if len(s.Permitted) != s.N {
		return errors.New("bestresponse: need a permitted list per node")
	}
	for i := 1; i < s.N; i++ {
		for _, p := range s.Permitted[i] {
			if len(p) < 2 || p[0] != i || p[len(p)-1] != 0 {
				return fmt.Errorf("bestresponse: node %d has malformed path %v", i, p)
			}
			for _, v := range p {
				if v < 0 || v >= s.N {
					return fmt.Errorf("bestresponse: path %v leaves node range", p)
				}
			}
		}
	}
	return nil
}

// pathTable enumerates announcements: 0 = no route, 1 = the destination's
// trivial path (0), 2+k = the k-th permitted path in a global enumeration.
// Paths are keyed by a fixed-width bit packing interned in an enc.Table —
// the last string-keyed hot path of the reproduction (the reaction
// functions look up path IDs on every activation); packing into a stack
// buffer plus an open-addressing lookup does zero allocation per lookup
// and is safe for the concurrent sweeps that share one protocol.
type pathTable struct {
	slotBits uint // bits per slot, covering node IDs and the length prefix
	words    int  // uint64 words per packed key
	tab      *enc.Table
	paths    []Path // indexed by id-2
}

// pathKeyWords bounds the packed key width (and thereby the caller stack
// buffers): 8 words = 512 bits, e.g. 128 slots of 4 bits.
const pathKeyWords = 8

func (s *SPP) table() (*pathTable, error) {
	maxLen := 1
	for i := 1; i < s.N; i++ {
		for _, p := range s.Permitted[i] {
			if len(p) > maxLen {
				maxLen = len(p)
			}
		}
	}
	t := &pathTable{
		slotBits: uint(bits.Len(uint(max(s.N-1, maxLen)))),
	}
	t.words = ((maxLen+1)*int(t.slotBits) + 63) / 64
	if t.words > pathKeyWords {
		return nil, fmt.Errorf("bestresponse: packed path key needs %d words (max %d)", t.words, pathKeyWords)
	}
	t.tab = enc.NewTable(t.words, 16)
	for i := 1; i < s.N; i++ {
		for _, p := range s.Permitted[i] {
			var kb [pathKeyWords]uint64
			if _, fresh := t.tab.Intern(t.pack(p, kb[:])); fresh {
				t.paths = append(t.paths, p)
			}
		}
	}
	return t, nil
}

// pack writes p's fixed-width key into kb: slot 0 holds len(p), slots 1..
// the node IDs, the rest zero. Injective for node IDs < N and lengths ≤
// the table's maximum.
func (t *pathTable) pack(p Path, kb []uint64) []uint64 {
	kb = kb[:t.words]
	for i := range kb {
		kb[i] = 0
	}
	putSlot(kb, 0, t.slotBits, uint64(len(p)))
	for i, v := range p {
		putSlot(kb, i+1, t.slotBits, uint64(v))
	}
	return kb
}

// putSlot writes the low width bits of v at slot index slot.
func putSlot(kb []uint64, slot int, width uint, v uint64) {
	off := slot * int(width)
	v &= (1 << width) - 1
	wi, sh := off>>6, uint(off&63)
	kb[wi] |= v << sh
	if sh+width > 64 {
		kb[wi+1] |= v >> (64 - sh)
	}
}

// idOf returns the announcement label of a permitted path (2 + table ID),
// or false when the path is not in the table. kb is the caller's packing
// buffer (stack-allocated in the reactions, so lookups do not allocate).
func (t *pathTable) idOf(p Path, kb []uint64) (core.Label, bool) {
	id, ok := t.tab.Lookup(t.pack(p, kb))
	if !ok {
		return 0, false
	}
	return core.Label(2 + id), true
}

// announcement ids for special labels.
const (
	noRoute   core.Label = 0
	destRoute core.Label = 1
)

// Protocol compiles the SPP instance into a stateless protocol on the
// clique K_N: each node announces (same label to all neighbors) the id of
// its currently selected path — BGP's "map most recent neighbor
// announcements to a route choice" loop, literally stateless. A node's
// output bit is 1 iff it currently has a route.
func (s *SPP) Protocol() (*core.Protocol, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	t, err := s.table()
	if err != nil {
		return nil, err
	}
	g := graph.Clique(s.N)
	space := core.MustLabelSpace(uint64(2 + len(t.paths)))
	reactions := make([]core.Reaction, s.N)

	emit := func(out []core.Label, l core.Label) {
		for i := range out {
			out[i] = l
		}
	}
	reactions[0] = func(_ []core.Label, _ core.Bit, out []core.Label) core.Bit {
		emit(out, destRoute)
		return 1
	}
	for i := 1; i < s.N; i++ {
		i := i
		perm := s.Permitted[i]
		reactions[i] = func(in []core.Label, _ core.Bit, out []core.Label) core.Bit {
			at := func(u int) core.Label { // clique in-index of source u
				if u > i {
					u--
				}
				return in[u]
			}
			var kb [pathKeyWords]uint64
			for _, p := range perm {
				next := p[1]
				var wantTail core.Label
				if next == 0 {
					wantTail = destRoute
				} else {
					id, ok := t.idOf(p.Tail(), kb[:])
					if !ok {
						continue // tail not a permitted path of the next hop
					}
					wantTail = id
				}
				if at(next) == wantTail {
					id, _ := t.idOf(p, kb[:]) // p is permitted, always present
					emit(out, id)
					return 1
				}
			}
			emit(out, noRoute)
			return 0
		}
	}
	return core.NewProtocol(g, space, reactions)
}

// Assignment is a per-node route selection: Assignment[i] is the chosen
// path of node i (nil = no route); Assignment[0] is always Path{0}.
type Assignment []Path

// StableAssignments enumerates the stable states of the instance: the
// assignments in which every node's choice is the best permitted path
// consistent with its neighbors' choices (the fixed points of BGP's
// best-response dynamics, and exactly the protocol's stable labelings).
func (s *SPP) StableAssignments() ([]Assignment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	choice := make([]int, s.N) // index into Permitted[i], len = no route
	var out []Assignment
	var rec func(i int)
	rec = func(i int) {
		if i == s.N {
			if a, ok := s.checkStable(choice); ok {
				out = append(out, a)
			}
			return
		}
		for c := 0; c <= len(s.Permitted[i]); c++ {
			choice[i] = c
			rec(i + 1)
		}
	}
	rec(1)
	return out, nil
}

func (s *SPP) checkStable(choice []int) (Assignment, bool) {
	chosen := make([]Path, s.N)
	chosen[0] = Path{0}
	for i := 1; i < s.N; i++ {
		if choice[i] < len(s.Permitted[i]) {
			chosen[i] = s.Permitted[i][choice[i]]
		}
	}
	for i := 1; i < s.N; i++ {
		// Best response: the first permitted path whose tail is the next
		// hop's current choice.
		var best Path
		for _, p := range s.Permitted[i] {
			if chosen[p[1]] != nil && p.Tail().Equal(chosen[p[1]]) {
				best = p
				break
			}
		}
		cur := chosen[i]
		switch {
		case best == nil && cur != nil:
			return nil, false
		case best != nil && (cur == nil || !best.Equal(cur)):
			return nil, false
		}
	}
	return Assignment(chosen), true
}

// Classic instances from the interdomain-routing literature.

// GoodGadget returns a 4-node instance with a unique stable state (safe
// under all schedules): every node prefers the counterclockwise route but
// the preferences are aligned (no dispute wheel).
func GoodGadget() *SPP {
	return &SPP{
		N: 4,
		Permitted: [][]Path{
			nil,
			{Path{1, 0}},
			{Path{2, 1, 0}, Path{2, 0}},
			{Path{3, 2, 1, 0}, Path{3, 0}},
		},
	}
}

// Disagree returns the 3-node DISAGREE instance with exactly two stable
// states: by Theorem 3.1 its best-response dynamics cannot be label
// (n−1)-stabilizing.
func Disagree() *SPP {
	return &SPP{
		N: 3,
		Permitted: [][]Path{
			nil,
			{Path{1, 2, 0}, Path{1, 0}},
			{Path{2, 1, 0}, Path{2, 0}},
		},
	}
}

// BadGadget returns the 4-node BAD GADGET with *no* stable state: BGP
// divergence independent of schedules.
func BadGadget() *SPP {
	return &SPP{
		N: 4,
		Permitted: [][]Path{
			nil,
			{Path{1, 2, 0}, Path{1, 0}},
			{Path{2, 3, 0}, Path{2, 0}},
			{Path{3, 1, 0}, Path{3, 0}},
		},
	}
}
