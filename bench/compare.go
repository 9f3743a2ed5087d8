package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

// Verdicts of -compare, per (workload, metric).
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "differs" // a model metric that did not repeat exactly
)

// judge applies one metric's bound to a baseline and a candidate. A host
// metric whose run-to-run spread (on either side) is wider than its
// bound cannot be called unchanged and is reported unresolved; a model
// metric must be bit-identical.
func judge(d metricDef, base, cand summary) string {
	if d.Exact {
		if base.Median == cand.Median && base.Q1 == cand.Q1 && base.Q3 == cand.Q3 {
			return verdictSame
		}
		return verdictDiffers
	}
	if base.Median == 0 {
		return verdictUnresolved
	}
	change := (cand.Median - base.Median) / base.Median
	if d.Better == "higher" {
		change = -change
	}
	// change > 0 now means worse.
	if max(base.spread(), cand.spread()) > d.Bound {
		return verdictUnresolved
	}
	switch {
	case change > d.Bound:
		return verdictWorse
	case change < -d.Bound:
		return verdictBetter
	}
	return verdictSame
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the exit code: 1 on any worse row, any model-metric or digest
// difference, a workload or defined metric missing from either side, or
// two documents that were not measured alike.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readDocument(basePath)
	if err == nil {
		var cand *document
		if cand, err = readDocument(candPath); err == nil {
			return compareDocs(w, base, cand)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareDocs(w io.Writer, base, cand *document) int {
	// Bounds and exactness only mean something between runs of the same
	// inputs at the same width.
	if base.Host.Seed != cand.Host.Seed || base.Host.Width != cand.Host.Width || !reflect.DeepEqual(base.Sizes, cand.Sizes) {
		fmt.Fprintf(w, "not comparable: seed %d width %d sizes %+v vs seed %d width %d sizes %+v\n",
			base.Host.Seed, base.Host.Width, base.Sizes, cand.Host.Seed, cand.Host.Width, cand.Sizes)
		return 1
	}
	code := 0
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-26s %-10s %12s [%11s %11s] n=%-2s %12s [%11s %11s] n=%-2s\n",
		"workload", "metric", "verdict", "base median", "q1", "q3", "", "cand median", "q1", "q3", "")
	for _, name := range base.names() {
		b, c := base.Workloads[name], cand.Workloads[name]
		if c == nil {
			fmt.Fprintf(w, "%-16s missing from the candidate\n", name)
			code = 1
			continue
		}
		if b.Digest != c.Digest {
			fmt.Fprintf(w, "%-16s %-26s %-10s %s vs %s\n", name, "model_digest", verdictDiffers, b.Digest, c.Digest)
			code = 1
		}
		for _, d := range endToEnd {
			if !d.definedOn(name) {
				continue
			}
			bm, ok := b.Metrics[d.Name]
			cm, ok2 := c.Metrics[d.Name]
			if !ok || !ok2 {
				fmt.Fprintf(w, "%-16s %-26s missing (base has it: %v, candidate: %v)\n", name, d.Name, ok, ok2)
				code = 1
				continue
			}
			v := judge(d, bm.summary, cm.summary)
			counts[v]++
			if v == verdictWorse || v == verdictDiffers {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-26s %-10s %12.6g [%11.6g %11.6g] n=%-2d %12.6g [%11.6g %11.6g] n=%-2d\n",
				name, d.Name, v, bm.Median, bm.Q1, bm.Q3, bm.N, cm.Median, cm.Q1, cm.Q3, cm.N)
		}
	}
	fmt.Fprintf(w, "\n%d better, %d same, %d worse, %d unresolved, %d differ\n",
		counts[verdictBetter], counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved], counts[verdictDiffers])
	return code
}
