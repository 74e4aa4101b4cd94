package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke tests over every protocol/schedule pair the CLI advertises: each
// must exit cleanly and report a status line. Guards the module build in
// this previously test-less package.
func TestRunAllProtocols(t *testing.T) {
	cases := [][]string{
		{"-protocol", "example1", "-n", "4"},
		{"-protocol", "example1", "-n", "4", "-schedule", "adversarial"},
		{"-protocol", "tree-xor", "-n", "5", "-input", "10110"},
		{"-protocol", "tree-maj", "-n", "5", "-input", "11100", "-schedule", "roundrobin"},
		{"-protocol", "slow-ring", "-n", "4", "-q", "3"},
		{"-protocol", "dcounter", "-n", "5", "-d", "8", "-steps", "2000"},
		{"-protocol", "bgp-good", "-schedule", "rfair", "-steps", "2000"},
		{"-protocol", "bgp-disagree", "-random-init"},
		{"-protocol", "bgp-bad", "-steps", "1000"},
		{"-protocol", "example1", "-n", "4", "-trials", "8", "-workers", "2"},
		{"-protocol", "tree-xor", "-n", "5", "-input", "10110", "-trials", "6", "-workers", "3", "-schedule", "roundrobin"},
		{"-protocol", "bgp-good", "-schedule", "rfair", "-steps", "2000", "-trials", "4", "-workers", "2"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !strings.Contains(out.String(), "status=") {
				t.Fatalf("%v: no status line in output:\n%s", args, out.String())
			}
		})
	}
}

// A -trials sweep must be deterministic for a fixed seed regardless of the
// worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	outs := make([]string, 2)
	for i, w := range []string{"1", "4"} {
		var out bytes.Buffer
		args := []string{"-protocol", "example1", "-n", "4", "-trials", "12", "-workers", w, "-seed", "7"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		// Strip the workers=N echo, which legitimately differs.
		s := out.String()
		s = s[strings.Index(s, "worst_stabilized_at"):]
		outs[i] = s
	}
	if outs[0] != outs[1] {
		t.Fatalf("sweep output differs across worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "nope"}, &out); err == nil {
		t.Fatal("expected an error for an unknown protocol")
	}
}

// Unknown -sched values must fail with a usage error naming the valid set,
// not silently fall back to the synchronous schedule.
func TestRunRejectsUnknownSchedule(t *testing.T) {
	for _, flagName := range []string{"-sched", "-schedule"} {
		var out bytes.Buffer
		err := run([]string{"-protocol", "example1", "-n", "4", flagName, "eventual"}, &out)
		if err == nil {
			t.Fatalf("%s eventual: expected a usage error", flagName)
		}
		if !strings.Contains(err.Error(), "des") {
			t.Fatalf("%s error %q does not list the valid schedules", flagName, err)
		}
	}
}

// -sched and -schedule are aliases for the same value.
func TestSchedAliasesSchedule(t *testing.T) {
	outs := make([]string, 2)
	for i, flagName := range []string{"-sched", "-schedule"} {
		var out bytes.Buffer
		args := []string{"-protocol", "example1", "-n", "4", flagName, "roundrobin"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Fatalf("-sched and -schedule outputs differ:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

// The des path: every workload stabilizes the saturating ring and reports a
// percentile line; fixed seeds are byte-reproducible across worker counts.
func TestDESWorkloads(t *testing.T) {
	for _, wl := range []string{"steady", "burst", "churn", "mixed"} {
		t.Run(wl, func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-protocol", "saturating-ring", "-n", "64", "-q", "4",
				"-sched", "des", "-workload", wl, "-trials", "8", "-churn-until", "16"}
			if err := run(args, &out); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			s := out.String()
			if !strings.Contains(s, "stabilized=8/8") {
				t.Fatalf("workload %s did not stabilize all trials:\n%s", wl, s)
			}
			if !strings.Contains(s, "recovery_ticks p50=") {
				t.Fatalf("no percentile line:\n%s", s)
			}
		})
	}
}

func TestDESDeterministicAcrossWorkers(t *testing.T) {
	outs := make([]string, 2)
	for i, w := range []string{"1", "4"} {
		var out bytes.Buffer
		args := []string{"-protocol", "saturating-cube", "-n", "4", "-q", "3",
			"-sched", "des", "-workload", "mixed", "-daemon", "poisson",
			"-trials", "12", "-seed", "9", "-workers", w, "-churn-until", "16"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := out.String()
		s = s[strings.Index(s, "stabilized="):]
		outs[i] = s
	}
	if outs[0] != outs[1] {
		t.Fatalf("des sweep differs across worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestDESRejectsBadWorkloadFlags(t *testing.T) {
	base := []string{"-protocol", "saturating-ring", "-n", "16", "-sched", "des"}
	for _, extra := range [][]string{
		{"-workload", "meteor"},
		{"-daemon", "lazy"},
		{"-rejoin", "perfect"},
		{"-burst-at", "1,x"},
	} {
		var out bytes.Buffer
		if err := run(append(append([]string{}, base...), extra...), &out); err == nil {
			t.Fatalf("%v: expected an error", extra)
		}
	}
}

// Out-of-range -n values must fail with a usage error naming the flag and
// its valid range — never a panic from graph construction.
func TestRunRejectsOutOfRangeSizes(t *testing.T) {
	for _, tc := range []struct {
		protocol, n, want string
	}{
		{"saturating-cube", "40", "want 0..20"},
		{"saturating-cube", "-1", "want 0..20"},
		{"saturating-ring", "-1", "want 2..4194304"},
		{"tree-xor", "2", "want 3..62"},
		{"tree-maj", "0", "want 3..62"},
		{"tree-xor", "1000000000", "want 3..62"},
		{"example1", "100000", "want 2..1024"},
		{"slow-ring", "1", "want 2..4194304"},
		{"dcounter", "-5", "want 3..4194304"},
	} {
		args := []string{"-protocol", tc.protocol, "-n", tc.n, "-steps", "10"}
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = run(args, &bytes.Buffer{})
			}()
			if err == nil {
				t.Fatal("expected a usage error")
			}
			if msg := err.Error(); !strings.Contains(msg, "-n "+tc.n) || !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not name -n %s and its range %q", msg, tc.n, tc.want)
			}
		})
	}
}
