package stateless_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmePerfTable pins the README's performance table to
// BENCH_verify.json: every row names a config of that file, its time is
// the config's ms_per_verdict, its rate the config's states/s, and its
// speedup the baseline row's time over its own, rounded to one decimal.
// The paragraph after the table may quote only the table's rates and
// speedups.
func TestReadmePerfTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCH_verify.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Configs      map[string]float64 `json:"configs"`
		MsPerVerdict map[string]float64 `json:"ms_per_verdict"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	const base = "ring/store=hash/sym=off"
	row := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([0-9.]+) \\| ([0-9,]+) \\| (?:\\*\\*)?([0-9.]+x)(?:\\*\\*)? \\|\n")
	rows := row.FindAllSubmatchIndex(readme, -1)
	if len(rows) < 2 {
		t.Fatalf("found %d perf table rows in README.md, want ≥ 2", len(rows))
	}
	rates, speedups := map[string]bool{}, map[string]bool{}
	for _, idx := range rows {
		cell := func(i int) string { return string(readme[idx[2*i]:idx[2*i+1]]) }
		name, msCell, rateCell, speedCell := cell(1), cell(2), cell(3), cell(4)
		ms, okMs := bench.MsPerVerdict[name]
		rate, okRate := bench.Configs[name]
		if !okMs || !okRate {
			t.Errorf("%s: no such config in BENCH_verify.json", name)
			continue
		}
		if got, err := strconv.ParseFloat(msCell, 64); err != nil || got != ms {
			t.Errorf("%s: ms per verdict %s, BENCH_verify.json %v", name, msCell, ms)
		}
		if want := strconv.FormatFloat(rate, 'f', -1, 64); strings.ReplaceAll(rateCell, ",", "") != want {
			t.Errorf("%s: states/s %s, BENCH_verify.json %s", name, rateCell, want)
		}
		if want := fmt.Sprintf("%.1fx", bench.MsPerVerdict[base]/ms); speedCell != want {
			t.Errorf("%s: speedup %s, BENCH_verify.json gives %s", name, speedCell, want)
		}
		rates[rateCell], speedups[speedCell] = true, true
	}
	rest := readme[rows[len(rows)-1][1]:]
	prose := strings.TrimSpace(strings.SplitN(strings.TrimLeft(string(rest), "\n"), "\n\n", 2)[0])
	for _, n := range regexp.MustCompile(`\d{1,3}(?:,\d{3})+`).FindAllString(prose, -1) {
		if !rates[n] {
			t.Errorf("prose after the table quotes %s, which is no rate in the table", n)
		}
	}
	for _, x := range regexp.MustCompile(`\d+\.\d+x`).FindAllString(prose, -1) {
		if !speedups[x] {
			t.Errorf("prose after the table quotes %s, which is no speedup in the table", x)
		}
	}
}
