package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// regression is a metric whose candidate median is worse than the base
// median by more than its bound.
type regression struct {
	name       string
	base, cand float64
}

// compareRuns checks the medians of cand against those of base. A metric
// missing from either side is a regression, and so is a candidate run that
// is not correct (a failed request or check, a late generator, a metric it
// could not measure): a gate must not pass what it did not measure.
func compareRuns(bounds []bound, base, cand []*output) []regression {
	var out []regression
	incorrect := 0
	for _, r := range cand {
		if !r.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		out = append(out, regression{name: "correct", base: 0, cand: float64(incorrect)})
	}
	for _, b := range bounds {
		mb, okb := medianOf(base, b.Name)
		mc, okc := medianOf(cand, b.Name)
		worse := !okb || !okc
		switch b.Better {
		case "lower":
			worse = worse || mc > mb*(1+b.Bound)
		case "higher":
			worse = worse || mc < mb*(1-b.Bound)
		}
		if worse {
			out = append(out, regression{name: b.Name, base: mb, cand: mc})
		}
	}
	return out
}

func medianOf(runs []*output, name string) (float64, bool) {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// compareFiles is --compare: bounds from the benchmark file, result lines
// from two files (other lines are skipped, so raw run logs work too).
func compareFiles(benchPath, basePath, candPath string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bench struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	regs := compareRuns(bench.EndToEnd, base, cand)
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	for _, r := range regs {
		if r.name == "correct" {
			fmt.Fprintf(w, "%d candidate runs not correct\n", int(r.cand))
			continue
		}
		fmt.Fprintf(w, "regressed %s: %.4g → %.4g\n", r.name, r.base, r.cand)
	}
	fmt.Fprintf(w, "%d regressions over %d metrics (%d base runs, %d candidate runs)\n",
		len(regs), len(bench.EndToEnd), len(base), len(cand))
	return len(regs) > 0, nil
}

func readResults(path string) ([]*output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*output
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var o output
		if json.Unmarshal(sc.Bytes(), &o) == nil && o.Metrics != nil {
			out = append(out, &o)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return out, nil
}
