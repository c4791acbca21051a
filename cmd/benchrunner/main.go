// Command benchrunner regenerates the tables and figures of the ProMIPS
// paper's evaluation section (§VIII) on the synthetic dataset analogues.
//
// Usage:
//
//	benchrunner -fig all                      # everything, all datasets
//	benchrunner -fig 5 -dataset Netflix       # one figure, one dataset
//	benchrunner -fig ablations -dataset Sift
//	benchrunner -fig 4 -n 5000 -queries 20    # override workload size
//
// Figures: 4 (index size + preprocessing), 5 (overall ratio), 6 (recall),
// 7 (page access), 8 (CPU time), 9 (total time), 10 (impact of c),
// 11 (impact of p), table2 (complexity scaling), degraded (fan-out tail
// latency with one slow shard, with and without per-shard deadlines),
// repl (replication convergence over the shared-filesystem source vs the
// /v1/repl/* HTTP wire), ablations (Quick-Probe, partition pattern,
// projected dimension). An unknown -fig value is an error (exit status 2).
//
// The tables print the paper's metrics; timing of the running system is
// e2ebench's job (bash e2ebench/run.sh) and the root package's benchmarks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"promips/bench"
	"promips/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figure is one -fig value: its name and the runner that prints its tables.
type figure struct {
	name string
	run  func(*job) error
}

// figures lists every -fig value in the order "all" runs them. The flag's
// help string and the unknown-name error are generated from it.
var figures = []figure{
	{"4", (*job).fig4},
	{"5", sweepTable(0)},
	{"6", sweepTable(1)},
	{"7", sweepTable(2)},
	{"8", sweepTable(3)},
	{"9", sweepTable(4)},
	{"10", (*job).fig10},
	{"11", (*job).fig11},
	{"table2", (*job).table2},
	{"degraded", (*job).degraded},
	{"repl", (*job).repl},
	{"ablations", (*job).ablations},
}

// figureNames returns the valid -fig values, "all" first.
func figureNames() string {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(names, ",")
}

// selectFigures resolves a -fig value to the figures it runs.
func selectFigures(name string) ([]figure, error) {
	if name == "all" {
		return figures, nil
	}
	for _, f := range figures {
		if f.name == name {
			return []figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown -fig %q (valid: %s)", name, figureNames())
}

// run is main without the process: it parses args, runs the selected
// figures on the selected datasets and returns the exit status (2 for a
// usage error, 1 for a failed run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+figureNames())
	ds := fs.String("dataset", "all", "dataset: all, Netflix, Yahoo, P53, Sift")
	n := fs.Int("n", 0, "points per dataset (0 = laptop-scale default)")
	queries := fs.Int("queries", 0, "queries per dataset (0 = 100, the paper's workload)")
	seed := fs.Int64("seed", 1, "random seed")
	kList := fs.String("ks", "", "comma-separated k values (default 10..100 step 10)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "benchrunner:", err)
		return 2
	}

	selected, err := selectFigures(*fig)
	if err != nil {
		return usage(err)
	}
	specs := dataset.Specs()
	if *ds != "all" {
		s, err := dataset.Get(*ds)
		if err != nil {
			return usage(err)
		}
		specs = []dataset.Spec{s}
	}
	ks := bench.Ks()
	if *kList != "" {
		ks = nil
		for _, part := range strings.Split(*kList, ",") {
			var k int
			if _, err := fmt.Sscan(strings.TrimSpace(part), &k); err != nil || k <= 0 {
				return usage(fmt.Errorf("bad k %q", part))
			}
			ks = append(ks, k)
		}
	}

	// Every experiment below runs under this context: -timeout turns a hung
	// or mis-sized workload into a clean deadline error instead of a CI job
	// that has to be killed from outside.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	for _, spec := range specs {
		cfg := bench.Config{Spec: spec, N: *n, NumQueries: *queries, Seed: *seed}
		if err := runDataset(ctx, cfg, selected, ks, stdout); err != nil {
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
	}
	return 0
}

func runDataset(ctx context.Context, cfg bench.Config, selected []figure, ks []int, out io.Writer) error {
	fmt.Fprintf(out, "\n######## dataset %s ########\n", cfg.Spec.Name)
	env, err := bench.NewEnv(cfg)
	if err != nil {
		return err
	}
	j := &job{ctx: ctx, env: env, ks: ks, out: out}
	defer j.close()
	fmt.Fprintf(out, "n=%d d=%d queries=%d page=%dB m=%d\n",
		len(env.Data), cfg.Spec.D, len(env.Queries), cfg.Spec.PageSize, cfg.Spec.M)
	for _, f := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.run(j); err != nil {
			return fmt.Errorf("fig %s: %w", f.name, err)
		}
	}
	return nil
}

// job is one dataset's run: the environment plus what figures 4–9 share,
// so "all" builds the four methods and sweeps k once.
type job struct {
	ctx context.Context
	env *bench.Env
	ks  []int
	out io.Writer

	builts []bench.Built   // the four methods, built on first use
	sweep  *[5]bench.Table // figures 5–9, measured together on first use
}

func (j *job) close() {
	for _, b := range j.builts {
		b.Method.Close()
	}
	j.env.Close()
}

// table prints one experiment's table, or passes its error on.
func (j *job) table(t bench.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(j.out)
	t.Fprint(j.out)
	return nil
}

func (j *job) methods() ([]bench.Built, error) {
	if j.builts == nil {
		builts, err := j.env.BuildAll(nil)
		if err != nil {
			return nil, err
		}
		j.builts = builts
	}
	return j.builts, nil
}

func (j *job) fig4() error {
	builts, err := j.methods()
	if err != nil {
		return err
	}
	return j.table(bench.Fig4(j.env, builts), nil)
}

// sweepTable returns the runner of one of figures 5–9: table i of the
// shared k sweep.
func sweepTable(i int) func(*job) error {
	return func(j *job) error {
		if j.sweep == nil {
			builts, err := j.methods()
			if err != nil {
				return err
			}
			tables, err := bench.Sweep(j.env, builts, j.ks)
			if err != nil {
				return err
			}
			j.sweep = &tables
		}
		return j.table(j.sweep[i], nil)
	}
}

func (j *job) fig10() error {
	return j.table(bench.Fig10(j.env, []float64{0.7, 0.8, 0.9}, 10))
}

func (j *job) fig11() error {
	return j.table(bench.Fig11(j.env, []float64{0.3, 0.5, 0.7, 0.9}, 10))
}

func (j *job) table2() error {
	base := j.env.Cfg
	base.NumQueries = min(len(j.env.Queries), 20)
	nBase := len(j.env.Data)
	return j.table(bench.Table2Scaling(base, []int{nBase / 4, nBase / 2, nBase}, 10))
}

func (j *job) degraded() error {
	return j.table(bench.DegradedSearch(j.ctx, j.env, 4, 10))
}

func (j *job) repl() error {
	return j.table(bench.ReplTransport(j.ctx, j.env, 2, 5, 50))
}

func (j *job) ablations() error {
	if err := j.table(bench.AblationQuickProbe(j.env, []int{10, 50, 100})); err != nil {
		return err
	}
	if err := j.table(bench.AblationPartition(j.env, []int{10, 50, 100})); err != nil {
		return err
	}
	return j.table(bench.AblationProjDim(j.env, []int{4, 6, 8, 10}, 10))
}
