package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// Smoke test: the example must run to completion, and the ring must
// compute EQ₄ on both inputs. Examples are package main with no test files
// by default, so a build break here (e.g. the missing-go.mod regression)
// went unnoticed; this pins "go test ./..." to compiling and exercising
// every example.
func TestMainSmoke(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	captured := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		captured <- buf.String()
	}()
	defer func() { os.Stdout = old }()

	main() // exits the test process via log.Fatal on error — loud enough

	w.Close()
	os.Stdout = old
	out := <-captured
	if strings.TrimSpace(out) == "" {
		t.Fatal("example produced no output")
	}
	for _, want := range []string{
		"input 1010: ring output 1, circuit says 1 ",
		"input 1001: ring output 0, circuit says 0 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
