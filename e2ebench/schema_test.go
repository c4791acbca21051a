package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// What the command can print is exactly what BENCHMARK.json declares.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("top-level keys %v, want exactly %s", got, want)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	d, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	if len(decl.Paths) != 1 || decl.Paths[0] != "e2ebench" || !pathRE.MatchString(decl.Paths[0]) {
		t.Errorf("paths %v, want [e2ebench]", decl.Paths)
	}
	if len(decl.Command) < 2 || decl.Command[0] != "bash" || decl.Command[1] != "e2ebench/run.sh" {
		t.Errorf("command %v, want bash e2ebench/run.sh", decl.Command)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", decl.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	var declared, have []string
	for _, w := range decl.Workloads {
		unique(w.Name)
		declared = append(declared, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Errorf("workloads declared %v, the command runs %v", declared, have)
	}

	check := func(kind string, declared []boundedMetric, have []metricDef, bounded bool) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d declared, the command prints %d", kind, len(declared), len(have))
		}
		for i, m := range declared {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %g out of (0, 0.25]", kind, m.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
			if i < len(have) && (have[i].Name != m.Name || have[i].Unit != m.Unit) {
				t.Errorf("%s #%d: declared %s [%s], the command prints %s [%s]", kind, i, m.Name, m.Unit, have[i].Name, have[i].Unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	if len(d.PerLayer) > 128 || len(d.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics: at most 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	var setup *boundedMetric
	for i := range d.EndToEnd {
		if d.EndToEnd[i].Name == "setup_s" {
			setup = &d.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", setup)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, at most 64 KiB", len(raw))
	}
}

// A metric set can neither print an undeclared name nor drop a declared one.
func TestMetricSetIsClosed(t *testing.T) {
	s := newMetricSet(endToEnd)
	s.set("qps", 12)
	out := s.out()
	if len(out) != len(endToEnd) || out["qps"].Value != 12 || out["qps"].Unit != "ops/s" || out["p50_ms"].Value != 0 {
		t.Errorf("out() = %v", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric must panic")
		}
	}()
	s.set("made_up", 1)
}
