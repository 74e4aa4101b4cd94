package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke tests: label and output verdicts on the toy protocols, including
// an explicit multi-worker run of the parallel explorer. Guards the module
// build in this previously test-less package.
func TestRunVerdicts(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "example1", "-n", "3", "-r", "1"}, "label 1-stabilizing: true"},
		{[]string{"-protocol", "example1", "-n", "3", "-r", "2"}, "label 2-stabilizing: false"},
		{[]string{"-protocol", "example1", "-n", "3", "-r", "2", "-workers", "4"}, "label 2-stabilizing: false"},
		{[]string{"-protocol", "bgp-disagree", "-r", "2", "-output"}, "output 2-stabilizing:"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(tc.args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out.String())
			}
		})
	}
}

func TestRunStateLimit(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-protocol", "example1", "-n", "3", "-r", "2", "-limit", "10"}, &out, &errOut); err == nil {
		t.Fatal("expected a state-space-limit error")
	}
}

// TestRunProgress checks the -progress flag: snapshots land on stderr (at
// minimum the final one, which always fires), the verdict stays on stdout.
func TestRunProgress(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-protocol", "example1", "-n", "3", "-r", "2",
		"-progress", "-progress-interval", "1ms"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "label 2-stabilizing: false") {
		t.Fatalf("stdout missing verdict:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "progress:") || !strings.Contains(errOut.String(), "states/s") {
		t.Fatalf("stderr missing progress lines:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), "progress:") {
		t.Fatalf("progress leaked onto stdout:\n%s", out.String())
	}
}

// Out-of-range topology size flags must fail with a usage error naming the
// flag and its valid range — never a panic from graph construction.
func TestRunRejectsOutOfRangeSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "bidir-ring", "-n", "2"}, "-n 2 out of range for -protocol bidir-ring: want 3..1024"},
		{[]string{"-protocol", "bidir-ring", "-n", "-3"}, "-n -3 out of range"},
		{[]string{"-protocol", "torus", "-rows", "0"}, "-rows 0 out of range for -protocol torus: want 1..32"},
		{[]string{"-protocol", "torus", "-rows", "-2", "-cols", "-2"}, "-rows -2 out of range"},
		{[]string{"-protocol", "torus", "-cols", "1000"}, "-cols 1000 out of range"},
		{[]string{"-protocol", "cube", "-n", "40"}, "-n 40 out of range for -protocol cube: want 0..10"},
		{[]string{"-protocol", "cube", "-n", "-1"}, "-n -1 out of range"},
		{[]string{"-protocol", "bfs-cube", "-n", "63"}, "-n 63 out of range"},
		{[]string{"-protocol", "example1", "-n", "100000"}, "-n 100000 out of range"},
		{[]string{"-protocol", "ring", "-n", "1"}, "want 2..1024"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err = run(tc.args, &bytes.Buffer{}, &bytes.Buffer{})
			}()
			if err == nil {
				t.Fatal("expected a usage error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// -symmetry selects the quotient: off explores the raw state space of the
// ring (32,202 states at n = 6, Σ = 3, r = 3), auto and on the rotation
// quotient; an unknown mode is a usage error.
func TestRunSymmetryFlag(t *testing.T) {
	base := []string{"-protocol", "ring", "-n", "6", "-sigma", "3", "-r", "3", "-store", "hash"}
	for _, tc := range []struct {
		mode string
		want string
	}{
		{"off", "label 3-stabilizing: true (explored 32202 states)"},
		{"auto", "label 3-stabilizing: true (explored 5399 states)"},
		{"on", "label 3-stabilizing: true (explored 5399 states)"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(append(base, "-symmetry", tc.mode), &out, &errOut); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out.String())
			}
		})
	}
	var out, errOut bytes.Buffer
	err := run(append(base, "-symmetry", "maybe"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), `unknown symmetry "maybe"`) {
		t.Fatalf("-symmetry maybe: err = %v, want an unknown-symmetry error", err)
	}
}

// An out-of-range bitstate size is an error that main prints before it
// exits 1, never a 2^40-bit allocation. The store is left at auto, so a
// missing check could not allocate the array.
func TestRunRejectsOversizedBitstate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-protocol", "ring", "-n", "4", "-bits", "70"}, "bitstate bits 70 exceeds the maximum 40"},
		{[]string{"-protocol", "ring", "-n", "4", "-bitstate-k", "1000"}, "bitstate k 1000 exceeds the maximum 8"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		// The option is refused before the stable-labeling pre-pass runs.
		if stdout.Len() != 0 {
			t.Fatalf("%v: printed %q before refusing the option", tc.args, stdout.String())
		}
	}
}
