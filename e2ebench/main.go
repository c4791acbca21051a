// Command e2ebench measures promipsd from one client's side of the wire to
// the other's: it builds an index, serves it from a child promipsd on
// loopback, drives it through promips/client and checks every answer.
//
//	bash e2ebench/run.sh --workload warm-small --seed 1 --seconds 16 --trace 0
//
// prints one workload's end-to-end metrics as the last line of stdout;
// --trace 1 is the separate traced run that prints the per-layer metrics
// and writes trace-<workload>.json. --workload all runs every workload
// (--repeat N of them, on seeds seed..seed+N-1) and prints one record per
// line, which is what -compare reads:
//
//	bash e2ebench/run.sh -compare A.jsonl B.jsonl
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() { os.Exit(mainCode()) }

// mainCode is main with an exit code, so that its deferred calls run before
// the process ends.
func mainCode() int {
	var (
		cfg       config
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of the traffic: which vectors are queried and inserted, in which order, and when each request is due")
		repeat    = flag.Int("repeat", 1, "runs per workload, on seeds seed..seed+repeat-1")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a trace file")
		compare   = flag.Bool("compare", false, "compare two record files: e2ebench -compare A.jsonl B.jsonl")
		benchmark = flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes its bounds from")
	)
	flag.StringVar(&cfg.promipsd, "promipsd", "", "path of the promipsd binary to drive (run.sh builds it)")
	flag.StringVar(&cfg.workDir, "work", "", "directory for index files (run.sh passes one inside the checkout)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for run records and trace files (default: <work>/out)")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measured seconds per run, split between the closed and open phase")
	flag.Float64Var(&cfg.rate, "rate", 0, "override the open-loop rate in requests/s (to show an overloaded run is reported as saturated)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return failed("usage: e2ebench -compare A.jsonl B.jsonl")
		}
		worse, err := compareFiles(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return failed("%v", err)
		}
		if worse {
			return 1
		}
		return 0
	}

	if cfg.promipsd == "" || cfg.workDir == "" {
		return failed("-promipsd and -work are required; run through e2ebench/run.sh")
	}
	cfg.trace = *trace != 0
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.workDir, "out")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return failed("%v", err)
	}
	run := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			return failed("unknown workload %q", *name)
		}
		run = []workload{*w}
	}

	// SIGINT/SIGTERM cancel the run; every exit path below then unwinds
	// through runWorkload's deferred kill of the child and removal of its
	// index directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := readEnvironment()
	allCorrect := true
	for s := *seed; s < *seed+int64(*repeat); s++ {
		for i := range run {
			rec, err := runWorkload(ctx, &cfg, &run[i], s, env)
			if err != nil {
				return failed("%s seed %d: %v", run[i].Name, s, err)
			}
			report(os.Stderr, rec)
			allCorrect = allCorrect && rec.Correct
			var line any = rec
			if *name != "all" {
				// The driver's contract: exactly these four keys.
				line = struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics}
			}
			b, err := json.Marshal(line)
			if err != nil {
				return failed("%v", err)
			}
			fmt.Println(string(b))
		}
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// failed reports why the command could not do its work.
func failed(format string, a ...any) int {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", a...)
	return 2
}

// report prints a run for a reader: every metric by name with its unit.
func report(f *os.File, rec *record) {
	fmt.Fprintf(f, "\n== %s  seed %d  trace %d  open rate %g/s  closed %.1fs open %.1fs  pace %.2f  (%d cores, %s, rev %.12s)\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Rate, rec.Phases["closed"], rec.Phases["open"], rec.Pace, rec.Env.NProc, rec.Env.GoVersion, rec.Env.GitRev)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Fprintf(f, "  attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, s := range rec.Saturated {
		fmt.Fprintf(f, "  SATURATED: %s (the latencies above do not measure promipsd at this rate)\n", s)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(f, "  WRONG: %s\n", p)
	}
}
