// Command verify decides label/output r-stabilization of small built-in
// protocols by exhaustive state-space search — the problem Theorems 4.1
// and 4.2 prove intractable in general, solved by brute force at toy sizes.
//
// Usage:
//
//	verify -protocol example1 -n 3 -r 2
//	verify -protocol bgp-disagree -r 2 -output
//	verify -protocol example1 -n 4 -r 2 -progress
//	verify -protocol example1 -n 4 -r 2 -report out.jsonl -debug-addr :6060
//
// Topology-zoo protocols exercise the generalized symmetry quotient
// (broadcast protocols commute with the full automorphism group — dihedral
// on bidirectional rings, signed bit permutations on hypercubes,
// translations on tori; the rooted BFS tree falls back to the root's
// stabilizer subgroup):
//
//	verify -protocol bidir-ring -n 6 -sigma 2 -r 2
//	verify -protocol cube -n 3 -r 2            (n = dimension: 2^n nodes)
//	verify -protocol torus -rows 3 -cols 3 -r 2
//	verify -protocol bfs-cube -n 2 -sigma 3 -r 2
//
// -symmetry off explores the raw state space instead (auto, the default,
// quotients whenever it is sound; on fails when it is not):
//
//	verify -protocol ring -n 7 -sigma 3 -r 3 -store hash -symmetry off
//
// Spin-class capacity mode — frontier spilling for any store, lossy
// bitstate search, and kill-safe bitstate checkpoints (see README "Store
// selection"):
//
//	verify -protocol ring -n 10 -sigma 3 -r 2 -store hash -spill-mem 1000000 -spill-dir /tmp/sp
//	verify -protocol ring -n 10 -sigma 3 -r 2 -store bitstate -bits 28
//	verify -protocol ring -n 12 -store bitstate -spill-mem 64000000 -spill-dir /tmp/sp
//	verify -protocol ring -n 12 -store bitstate -checkpoint /tmp/ck
//	verify -protocol ring -n 12 -store bitstate -checkpoint /tmp/ck -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"stateless/internal/bestresponse"
	"stateless/internal/core"
	"stateless/internal/explore"
	"stateless/internal/graph"
	"stateless/internal/obs"
	"stateless/internal/protocols"
	"stateless/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// Errors of the verify package already carry the prefix.
		fmt.Fprintln(os.Stderr, "verify:", strings.TrimPrefix(err.Error(), "verify: "))
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var (
		name        = fs.String("protocol", "example1", "protocol: example1 | ring | copy-ring | bidir-ring | cube | torus | bfs-cube | bgp-good | bgp-disagree | bgp-bad")
		n           = fs.Int("n", 3, "clique size for example1, ring size for ring/copy-ring/bidir-ring, dimension for cube/bfs-cube")
		rows        = fs.Int("rows", 3, "torus: grid rows")
		cols        = fs.Int("cols", 3, "torus: grid columns")
		sigma       = fs.Uint64("sigma", 2, "label alphabet size for ring/copy-ring/bidir-ring/cube/torus/bfs-cube")
		r           = fs.Int("r", 2, "fairness parameter")
		output      = fs.Bool("output", false, "check output stabilization instead of label stabilization")
		limit       = fs.Int("limit", 1<<24, "state-space limit")
		workers     = fs.Int("workers", 0, "exploration worker-pool size (0 = GOMAXPROCS)")
		store       = fs.String("store", "auto", "visited-state store: auto | dense | hash | bitstate (lossy)")
		symmetry    = fs.String("symmetry", "auto", "symmetry quotient: auto (when sound) | on (required) | off")
		bits        = fs.Int("bits", verify.DefaultBitstateBits, "bitstate: log2 bit capacity of the Bloom array")
		bitstateK   = fs.Int("bitstate-k", verify.DefaultBitstateK, "bitstate: hash functions per state")
		spillMem    = fs.Int64("spill-mem", 0, "frontier memory budget in bytes before spilling to disk (0 = never)")
		spillDir    = fs.String("spill-dir", "", "directory for spilled frontier chunks")
		checkpoint  = fs.String("checkpoint", "", "bitstate: write periodic atomic checkpoints to this directory")
		ckInterval  = fs.Duration("checkpoint-interval", 30*time.Second, "gap between checkpoints")
		resume      = fs.Bool("resume", false, "resume from the -checkpoint directory's manifest")
		progress    = fs.Bool("progress", false, "print exploration progress to stderr")
		interval    = fs.Duration("progress-interval", time.Second, "progress sampling period")
		reportPath  = fs.String("report", "", "append a structured run report as one JSON line to this file")
		debugAddr   = fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (opt-in)")
		debugLinger = fs.Duration("debug-linger", 0, "keep the debug server alive this long after the verdict")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if err := checkSizes(*name, map[string]int{"n": *n, "rows": *rows, "cols": *cols}); err != nil {
		return err
	}
	var (
		p      *core.Protocol
		err    error
		rooted bool // bfs-cube: node 0 is the root (input bit 1)
	)
	switch *name {
	case "example1":
		p, err = protocols.Example1Clique(*n)
	case "ring":
		p, err = protocols.SaturatingRing(*n, *sigma)
	case "copy-ring":
		p, err = protocols.CopyRing(*n, *sigma)
	case "bidir-ring":
		p, err = protocols.SaturatingNet(graph.BidirectionalRing(*n), *sigma)
	case "cube":
		p, err = protocols.SaturatingNet(graph.Hypercube(*n), *sigma)
	case "torus":
		p, err = protocols.SaturatingNet(graph.Torus(*rows, *cols), *sigma)
	case "bfs-cube":
		p, err = protocols.BFSSpanningTree(graph.Hypercube(*n), *sigma)
		rooted = true
	case "bgp-good":
		p, err = bestresponse.GoodGadget().Protocol()
	case "bgp-disagree":
		p, err = bestresponse.Disagree().Protocol()
	case "bgp-bad":
		p, err = bestresponse.BadGadget().Protocol()
	default:
		return fmt.Errorf("unknown protocol %q", *name)
	}
	if err != nil {
		return err
	}
	x := make(core.Input, p.Graph().N())
	if rooted {
		x[0] = 1
	}

	// A registry is attached whenever some sink will read it: a report
	// file, the debug server, or the extended progress line.
	var reg *obs.Registry
	if *reportPath != "" || *debugAddr != "" || *progress {
		reg = obs.NewRegistry()
	}
	var dbg *obs.DebugServer
	if *debugAddr != "" {
		dbg, err = obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "debug server on http://%s/debug/vars\n", dbg.Addr())
	}

	start := time.Now()
	rep := obs.NewReport("verify", *name)
	g := p.Graph()
	rep.Nodes, rep.Edges, rep.Sigma, rep.R = g.N(), g.M(), p.Space().Size(), *r
	rep.Options = map[string]string{
		"n":        strconv.Itoa(*n),
		"r":        strconv.Itoa(*r),
		"output":   strconv.FormatBool(*output),
		"limit":    strconv.Itoa(*limit),
		"workers":  strconv.Itoa(*workers),
		"store":    *store,
		"symmetry": *symmetry,
	}
	if *name == "torus" {
		rep.Options["rows"] = strconv.Itoa(*rows)
		rep.Options["cols"] = strconv.Itoa(*cols)
	}

	var storeKind verify.StoreKind
	switch *store {
	case "auto":
		storeKind = verify.StoreAuto
	case "dense":
		storeKind = verify.StoreDense
	case "hash":
		storeKind = verify.StoreHash
	case "bitstate":
		storeKind = verify.StoreBitstate
		rep.Options["bits"] = strconv.Itoa(*bits)
		rep.Options["bitstate-k"] = strconv.Itoa(*bitstateK)
	default:
		return fmt.Errorf("unknown store %q", *store)
	}
	var symMode verify.SymmetryMode
	switch *symmetry {
	case "auto":
		symMode = verify.SymmetryAuto
	case "on":
		symMode = verify.SymmetryOn
	case "off":
		symMode = verify.SymmetryOff
	default:
		return fmt.Errorf("unknown symmetry %q: want auto | on | off", *symmetry)
	}

	opts := verify.Options{
		Limit:              *limit,
		Workers:            *workers,
		Metrics:            reg,
		Store:              storeKind,
		Symmetry:           symMode,
		BitstateBits:       *bits,
		BitstateK:          *bitstateK,
		SpillMemBytes:      *spillMem,
		SpillDir:           *spillDir,
		CheckpointDir:      *checkpoint,
		CheckpointInterval: *ckInterval,
		Resume:             *resume,
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	// The Theorem 3.1 pre-pass enumerates the full per-node labeling space;
	// bitstate mode targets instances where exactly that is infeasible.
	if storeKind != verify.StoreBitstate {
		stable, err := verify.StablePerNodeLabelings(p, x, *limit, *workers)
		if err == nil {
			fmt.Fprintf(stdout, "stable labelings (per-node-uniform): %d\n", len(stable))
			if len(stable) >= 2 {
				fmt.Fprintf(stdout, "⇒ Theorem 3.1: cannot be label %d-stabilizing\n", g.N()-1)
			}
		}
	}

	var dec verify.Decision
	if *progress {
		opts.ProgressInterval = *interval
		opts.Progress = func(pr verify.Progress) {
			fmt.Fprintln(stderr, progressLine(pr))
		}
	}
	if *output {
		dec, err = verify.OutputRStabilizingOpts(p, x, *r, opts)
	} else {
		dec, err = verify.LabelRStabilizingOpts(p, x, *r, opts)
	}
	if err != nil {
		return err
	}
	kind := "label"
	if *output {
		kind = "output"
	}
	switch {
	case dec.Stabilizing && !dec.Exact:
		// A lossy store can prune reachable states, so a clean sweep is
		// "no violation found", never "verified" — Spin's bitstate caveat.
		fmt.Fprintf(stdout, "%s %d-stabilization: no violation found (bitstate, k=%d, hash-factor %.1f) — explored %d states\n",
			kind, *r, dec.BitstateK, dec.HashFactor, dec.States)
	default:
		fmt.Fprintf(stdout, "%s %d-stabilizing: %v (explored %d states)\n", kind, *r, dec.Stabilizing, dec.States)
	}
	if dec.Witness != nil {
		fmt.Fprintln(stdout, "witness: a reachable oscillation exists between two configurations")
	}

	switch {
	case !dec.Stabilizing:
		rep.Verdict = "not-stabilizing"
	case !dec.Exact:
		rep.Verdict = "no-violation"
	default:
		rep.Verdict = "stabilizing"
	}
	rep.Resumed = *resume
	rep.States, rep.Quotient, rep.Witness = dec.States, dec.Quotient, dec.Witness != nil
	rep.Metrics = reg.Snapshot()
	rep.Finish(start)
	if *reportPath != "" {
		if err := rep.AppendJSONL(*reportPath); err != nil {
			return err
		}
	}
	if dbg != nil && *debugLinger > 0 {
		fmt.Fprintf(stderr, "debug server lingering %s on http://%s/debug/vars\n", *debugLinger, dbg.Addr())
		time.Sleep(*debugLinger)
	}
	return nil
}

// sizeFlag is the valid range of one topology size flag.
type sizeFlag struct {
	flag   string
	lo, hi int
	what   string
}

// sizeFlags lists, per protocol, the size flags its graph uses. Every upper
// bound lies far beyond what the exhaustive search can explore (its seed
// space alone has at least 2^nodes labelings), so no verifiable instance is
// rejected; the bounds only keep graph construction from panicking or
// allocating without limit.
var sizeFlags = map[string][]sizeFlag{
	"example1":   {{"n", 2, 1 << 10, "clique nodes"}},
	"ring":       {{"n", 2, 1 << 10, "ring nodes"}},
	"copy-ring":  {{"n", 2, 1 << 10, "ring nodes"}},
	"bidir-ring": {{"n", 3, 1 << 10, "ring nodes"}},
	"cube":       {{"n", 0, 10, "hypercube dimension"}},
	"bfs-cube":   {{"n", 0, 10, "hypercube dimension"}},
	"torus":      {{"rows", 1, 32, "torus grid side"}, {"cols", 1, 32, "torus grid side"}},
}

// checkSizes validates the protocol's size flags before any graph is built,
// so an out-of-range value is a usage error naming the flag and its valid
// range rather than a panic.
func checkSizes(name string, values map[string]int) error {
	for _, f := range sizeFlags[name] {
		if v := values[f.flag]; v < f.lo || v > f.hi {
			return fmt.Errorf("-%s %d out of range for -protocol %s: want %d..%d (%s)",
				f.flag, v, name, f.lo, f.hi, f.what)
		}
	}
	return nil
}

// progressLine renders one -progress sample, folding in depth, batch
// fill-rate and store occupancy when the registry snapshot carries them.
func progressLine(pr verify.Progress) string {
	line := fmt.Sprintf("progress: %d states, %d expanded, frontier %d, depth %d, %.0f states/s",
		pr.States, pr.Expanded, pr.Frontier, pr.Depth, pr.StatesPerSec)
	if v, ok := pr.Metrics[explore.MetricBatchFill]; ok && v.Count > 0 {
		line += fmt.Sprintf(", fill %.1f", float64(v.Sum)/float64(v.Count))
	}
	if v, ok := pr.Metrics[explore.MetricStoreOccupancyPPM]; ok {
		line += fmt.Sprintf(", occ %.2f%%", float64(v.Value)/1e4)
	}
	return line + ", " + pr.Elapsed.Round(time.Millisecond).String()
}
