package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/tables.golden")

// Every experiment table is pinned as a golden file, so a change that
// should leave the reproduced results alone is checked byte for byte.
// Intended changes are reviewed by regenerating with -update.
func TestTablesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/experiments -run TestTablesGolden -update)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("experiment tables deviate from golden file (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// Smoke test: the binary's run() must succeed and produce a rendered table
// for a cheap experiment. Guards the module build (this package had no
// tests, so a broken build here went unnoticed) and the flag plumbing.
func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-only", "E7"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "E7") || len(strings.TrimSpace(s)) == 0 {
		t.Fatalf("expected an E7 table, got:\n%s", s)
	}
}

// The -workers flag must plumb through to the experiment worker pools and
// not change results: E1 (which fans out the verifier and trial sweeps)
// must render identically for 1 and 3 workers.
func TestRunWorkersFlag(t *testing.T) {
	outs := make([]string, 2)
	for i, w := range []string{"1", "3"} {
		var out bytes.Buffer
		if err := run([]string{"-only", "E1", "-workers", w}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		outs[i] = out.String()
	}
	if !strings.Contains(outs[0], "E1") {
		t.Fatalf("expected an E1 table, got:\n%s", outs[0])
	}
	if outs[0] != outs[1] {
		t.Fatalf("E1 output depends on worker count:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestRunUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out, io.Discard); err == nil {
		t.Fatal("expected an error for an unknown flag")
	}
}
