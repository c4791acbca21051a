package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs drives run and returns its exit status and captured streams.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUnknownFigRejected(t *testing.T) {
	// "12" and the misspelling used to print the dataset header and exit 0;
	// concurrency, shards and updates were figures of the deleted rig.
	for _, name := range []string{"12", "concurency", "concurrency", "shards", "updates", ""} {
		code, stdout, stderr := runArgs("-fig", name, "-dataset", "Netflix", "-n", "300")
		if code != 2 {
			t.Errorf("-fig %q: exit status %d, want 2", name, code)
		}
		if stdout != "" {
			t.Errorf("-fig %q: printed %q before rejecting the name", name, stdout)
		}
		if !strings.Contains(stderr, figureNames()) {
			t.Errorf("-fig %q: error %q does not list the valid names %q", name, stderr, figureNames())
		}
	}
}

func TestRemovedFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-out", "-label", "-baseline"} {
		code, stdout, stderr := runArgs(flag, "x.json")
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit status %d, stdout %q; want 2 and nothing measured", flag, code, stdout)
		}
		if !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: stderr %q", flag, stderr)
		}
	}
}

func TestEveryFigureNameResolves(t *testing.T) {
	if got := figureNames(); got != "all,4,5,6,7,8,9,10,11,table2,degraded,repl,ablations" {
		t.Fatalf("figureNames() = %q", got)
	}
	all, err := selectFigures("all")
	if err != nil || len(all) != len(figures) {
		t.Fatalf("all selects %d figures (err %v), want %d", len(all), err, len(figures))
	}
	for _, f := range figures {
		got, err := selectFigures(f.name)
		if err != nil || len(got) != 1 || got[0].name != f.name || got[0].run == nil {
			t.Errorf("selectFigures(%q) = %v, %v", f.name, got, err)
		}
	}
}

// One sweep figure and the ablations, end to end on a tiny workload: the
// table reaches stdout under its own title and nothing else is printed.
func TestFiguresDispatch(t *testing.T) {
	for _, tc := range []struct {
		fig          string
		want, absent []string
	}{
		{"7", []string{"== Fig 7: Page Access — Netflix (ProMIPS pages exclude the in-memory ring directory) =="}, []string{"Fig 4", "Fig 6", "Fig 8", "Ablation"}},
		{"ablations", []string{"Ablation: Quick-Probe", "Ablation: new partition pattern", "Ablation: projected dimension"}, []string{"Fig "}},
	} {
		code, stdout, stderr := runArgs("-fig", tc.fig, "-dataset", "Netflix", "-n", "300", "-queries", "3", "-ks", "10")
		if code != 0 {
			t.Fatalf("-fig %s: exit status %d, stderr %q", tc.fig, code, stderr)
		}
		if !strings.Contains(stdout, "######## dataset Netflix ########\nn=300 d=300 queries=3") {
			t.Errorf("-fig %s: missing dataset header:\n%s", tc.fig, stdout)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("-fig %s: output lacks %q:\n%s", tc.fig, w, stdout)
			}
		}
		for _, a := range tc.absent {
			if strings.Contains(stdout, a) {
				t.Errorf("-fig %s: output contains %q:\n%s", tc.fig, a, stdout)
			}
		}
	}
}
