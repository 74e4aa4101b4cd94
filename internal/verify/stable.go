package verify

import (
	"fmt"
	"math"
	"sync"

	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
)

// StableLabelings enumerates all stable labelings of (p, x): the fixed
// points of every reaction function (Section 3). limit bounds |Σ|^|E|.
// The sweep fans out over workers goroutines (≤ 0 means GOMAXPROCS; see
// explore.Labelings); the result order is the sequential odometer order
// regardless.
func StableLabelings(p *core.Protocol, x core.Input, limit, workers int) ([]core.Labeling, error) {
	m := p.Graph().M()
	if err := checkInput(p, x); err != nil {
		return nil, err
	}
	if tooMany(p.Space().Size(), m, limit) {
		return nil, fmt.Errorf("%w: |Σ|^m = %d^%d", ErrStateSpaceTooLarge, p.Space().Size(), m)
	}
	// Chunks run concurrently but each chunk index is visited by exactly
	// one goroutine, so per-chunk result slots need no locking.
	chunks := make([][]core.Labeling, explore.ChunkCount(p.Space(), m))
	err := explore.Labelings(p.Space(), m, workers, func(chunk int, l core.Labeling) error {
		if core.IsStable(p, x, l) {
			chunks[chunk] = append(chunks[chunk], l.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return flattenChunks(chunks), nil
}

// StablePerNodeLabelings enumerates the stable labelings of protocols in
// which every node emits the same label on all outgoing edges (cliques and
// other "broadcast" protocols, e.g. best-response dynamics): any stable
// labeling of such a protocol is per-node uniform, so it suffices to sweep
// |Σ|^n per-node assignments instead of |Σ|^|E| labelings. The sweep fans
// out over workers goroutines (≤ 0 means GOMAXPROCS); the result order is
// deterministic.
func StablePerNodeLabelings(p *core.Protocol, x core.Input, limit, workers int) ([]core.Labeling, error) {
	g := p.Graph()
	n := g.N()
	if err := checkInput(p, x); err != nil {
		return nil, err
	}
	if tooMany(p.Space().Size(), n, limit) {
		return nil, fmt.Errorf("%w: |Σ|^n = %d^%d", ErrStateSpaceTooLarge, p.Space().Size(), n)
	}
	pool := sync.Pool{New: func() any {
		l := make(core.Labeling, g.M())
		return &l
	}}
	chunks := make([][]core.Labeling, explore.ChunkCount(p.Space(), n))
	err := explore.Labelings(p.Space(), n, workers, func(chunk int, assign core.Labeling) error {
		lp := pool.Get().(*core.Labeling)
		defer pool.Put(lp)
		spread(g, assign, *lp)
		if core.IsStable(p, x, *lp) {
			chunks[chunk] = append(chunks[chunk], lp.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return flattenChunks(chunks), nil
}

// spread writes the per-node assignment into l: every out-edge of node v
// carries assign[v].
func spread(g *graph.Graph, assign, l core.Labeling) {
	for v := range assign {
		for _, id := range g.Out(graph.NodeID(v)) {
			l[id] = assign[v]
		}
	}
}

// checkInput rejects an input vector whose length is not the node count.
func checkInput(p *core.Protocol, x core.Input) error {
	if n := p.Graph().N(); len(x) != n {
		return fmt.Errorf("verify: input length %d, want %d nodes", len(x), n)
	}
	return nil
}

// flattenChunks concatenates per-chunk results in chunk order, restoring
// the deterministic sequential enumeration order.
func flattenChunks(chunks [][]core.Labeling) []core.Labeling {
	var out []core.Labeling
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

func tooMany(size uint64, m, limit int) bool {
	total := 1.0
	for i := 0; i < m; i++ {
		total *= float64(size)
		if total > float64(limit) {
			return true
		}
	}
	return math.IsInf(total, 0)
}
