package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkDecl is the part of BENCHMARK.json the harness reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkDecl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRecords loads the untraced runs of a record file (one JSON record
// per line, as --workload all prints them), keyed by workload then metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d is not a valid run (wrong answers or a saturated generator)", path, line, rec.Workload, rec.Seed)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges B against A on one metric: "worse" when B's median is
// worse than A's by more than the bound; "unresolved" when it is not but
// either side's own spread is wider than the bound, so that a regression
// of that size could hide in it; otherwise "ok".
func verdict(a, b []float64, m boundedMetric) (rel float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		rel = (mb - ma) / ma
	}
	worse := rel
	if m.Better == "higher" {
		worse = -rel
	}
	switch {
	case worse > m.Bound:
		return rel, "worse"
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return rel, "unresolved"
	}
	return rel, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference, each side's spread, the bound and the
// verdict. It reports whether any pair is worse.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (anyWorse bool, err error) {
	decl, err := readBenchmark(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(a))
	for name := range a {
		if b[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	fmt.Fprintf(w, "%-14s %-26s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "A iqr", "B iqr", "bound", "verdict")
	for _, name := range names {
		for _, m := range decl.EndToEnd {
			va, vb := a[name][m.Name], b[name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, v := verdict(va, vb, m)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-26s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d; %s is better)\n",
				name, m.Name, median(va), median(vb), 100*rel, 100*spread(va), 100*spread(vb), 100*m.Bound, v, len(va), len(vb), m.Better)
		}
	}
	return anyWorse, nil
}
