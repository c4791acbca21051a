// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation section (§VIII). Each reports the figure's metric through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the headline
// numbers at laptop scale; cmd/benchrunner prints the full paper-style
// series (all datasets, k = 10..100).
//
// The environment (Netflix-analogue dataset, all four method indexes) is
// built once and shared across benchmarks.
//
// This is an external test package (promips_test): bench imports the root
// package (bench/degraded.go, bench/repl.go), so an in-package test file
// would close an import cycle through the test binary.
package promips_test

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"promips"
	"promips/bench"
	"promips/internal/core"
	"promips/internal/dataset"
	"promips/internal/randproj"
	"promips/mips"
)

// benchN is the shared dataset size; override with PROMIPS_BENCH_N.
func benchN() int {
	if s := os.Getenv("PROMIPS_BENCH_N"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 4000
}

var (
	benchOnce sync.Once
	benchEnv  *bench.Env
	benchIdx  []bench.Built
	benchErr  error
)

func sharedEnv(b *testing.B) (*bench.Env, []bench.Built) {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = bench.NewEnv(bench.Config{
			Spec: dataset.Netflix(), N: benchN(), NumQueries: 10, Seed: 7,
		})
		if benchErr != nil {
			return
		}
		benchIdx, benchErr = benchEnv.BuildAll(nil)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv, benchIdx
}

// runQueries drives b.N queries round-robin through the workload.
func runQueries(b *testing.B, env *bench.Env, m mips.Method, k int) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.Queries[i%len(env.Queries)]
		if _, _, err := m.Search(q, k); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	searchOnce sync.Once
	searchEnv  *bench.Env
	searchIx   *core.Index
	searchErr  error
)

// searchBenchEnv builds a ProMIPS-only environment for the hot-path
// benchmarks (the four-method sharedEnv is much slower to set up) and warms
// the index so the timed loops measure the steady state. The pool is sized
// to hold the store in memory, as e2ebench's warm-small sizes it: the
// 1,024-page default cannot hold the ~1,340-page vector file of the default
// n = 4,000, and queries against it would pay preads and get the
// non-resident runaway budget; 8,192 pages hold up to about 24,000 points. The index is built
// directly through internal/core (this test package lives inside the
// module), keeping the public bench API free of internal types.
func searchBenchEnv(b *testing.B) (*bench.Env, *core.Index) {
	b.Helper()
	searchOnce.Do(func() {
		searchEnv, searchErr = bench.NewEnv(bench.Config{
			Spec: dataset.Netflix(), N: benchN(), NumQueries: 100, Seed: 1,
		})
		if searchErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "promips-searchbench-*")
		if err != nil {
			searchErr = err
			return
		}
		searchIx, searchErr = core.Build(context.Background(), searchEnv.Data, dir, core.Options{M: 6, Seed: 1, PoolSize: 8192})
		if searchErr != nil {
			return
		}
		for _, q := range searchEnv.Queries {
			if _, _, searchErr = searchIx.Search(q, 10); searchErr != nil {
				return
			}
		}
	})
	if searchErr != nil {
		b.Fatal(searchErr)
	}
	return searchEnv, searchIx
}

// BenchmarkSearch is the headline hot-path micro-benchmark: one warm
// sequential ProMIPS query on the default synthetic workload. Run with
// -benchmem; e2ebench's promips.search_ms is the same path measured inside
// a serving promipsd.
func BenchmarkSearch(b *testing.B) {
	env, ix := searchBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.Queries[i%len(env.Queries)]
		if _, _, err := ix.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchFiltered is the same warm hot path under a
// WithFilter-shaped predicate rejecting every even id — the
// filtered-serving workload (closing ROADMAP item 5's "WithFilter exists
// but has no bench").
func BenchmarkSearchFiltered(b *testing.B) {
	env, ix := searchBenchEnv(b)
	params := core.SearchParams{Filter: func(id uint32) bool { return id%2 == 1 }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.Queries[i%len(env.Queries)]
		if _, _, err := ix.SearchContext(context.Background(), q, 10, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertAck measures the acknowledgement cost of one sequential
// Insert: the journal append plus the fsync that makes it durable (with one
// updater, group commit has nothing to coalesce).
func BenchmarkInsertAck(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	data := make([][]float32, 500)
	for i := range data {
		v := make([]float32, 50)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	ix, err := promips.Build(data, promips.Options{Dir: b.TempDir(), Seed: 18, M: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertAckParallel is BenchmarkInsertAck with concurrent
// updaters — the group-commit measurement. Every ack that arrives while
// another updater's fsync is in flight coalesces onto the next one, so
// per-ack cost at 8 updaters must sit well below the serial
// number (the PR-6 acceptance bar was ≥4× amortization; e2ebench's
// wal.insert_ack_p50_ms is the end-to-end figure). The coalescing
// happens while goroutines block in fsync, so it shows up even at
// GOMAXPROCS=1 — SetParallelism rounds up to keep 8 updaters alive.
func BenchmarkInsertAckParallel(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	data := make([][]float32, 500)
	for i := range data {
		v := make([]float32, 50)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	for _, updaters := range []int{2, 8} {
		b.Run("updaters="+strconv.Itoa(updaters), func(b *testing.B) {
			ix, err := promips.Build(data, promips.Options{Dir: b.TempDir(), Seed: 18, M: 5})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.SetParallelism((updaters + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := ix.Insert(data[i%len(data)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
		})
	}
}

// BenchmarkSearchIncremental tracks the Algorithm 1 path the same way.
func BenchmarkSearchIncremental(b *testing.B) {
	env, ix := searchBenchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := env.Queries[i%len(env.Queries)]
		if _, _, err := ix.SearchIncremental(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Datasets regenerates the Table III workload: dataset
// generation cost per point for each of the four analogues.
func BenchmarkTable3Datasets(b *testing.B) {
	for _, spec := range dataset.Specs() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec.Generate(500, int64(i))
			}
			b.ReportMetric(float64(spec.D), "dims")
		})
	}
}

// BenchmarkFig4IndexSize reports each method's index size (Fig 4a) and
// build cost per run (Fig 4b is BenchmarkFig4Preprocess).
func BenchmarkFig4IndexSize(b *testing.B) {
	env, builts := sharedEnv(b)
	for _, bt := range builts {
		b.Run(bt.Method.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = bt.Method.IndexSizeBytes()
			}
			b.ReportMetric(float64(bt.IndexBytes)/(1<<20), "MB")
			b.ReportMetric(float64(bt.IndexBytes)/float64(len(env.Data)), "B/point")
		})
	}
}

// BenchmarkFig4Preprocess measures ProMIPS index construction (Fig 4b);
// the baselines' build times are reported by BenchmarkFig4IndexSize's
// shared build and by cmd/benchrunner.
func BenchmarkFig4Preprocess(b *testing.B) {
	env, _ := sharedEnv(b)
	dirBase := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := dirBase + "/" + strconv.Itoa(i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		ix, err := core.Build(context.Background(), env.Data, dir, core.Options{M: 6, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ix.Close()
	}
}

// fig5to9 measures one accuracy/efficiency metric for every method at k=10.
func fig5to9Metric(b *testing.B, metric string) {
	env, builts := sharedEnv(b)
	for _, bt := range builts {
		b.Run(bt.Method.Name(), func(b *testing.B) {
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			// Reported after the timed loop: ResetTimer deletes metrics.
			switch metric {
			case "ratio":
				b.ReportMetric(p.Ratio, "ratio")
			case "recall":
				b.ReportMetric(p.Recall, "recall")
			case "pages":
				b.ReportMetric(p.Pages, "pages/query")
			case "cpu":
				b.ReportMetric(p.CPUms, "ms/query")
			case "total":
				b.ReportMetric(p.TotalMs, "ms/query")
			}
		})
	}
}

// BenchmarkFig5OverallRatio reproduces Fig 5 (overall ratio vs k) at k=10.
func BenchmarkFig5OverallRatio(b *testing.B) { fig5to9Metric(b, "ratio") }

// BenchmarkFig6Recall reproduces Fig 6 (recall vs k) at k=10.
func BenchmarkFig6Recall(b *testing.B) { fig5to9Metric(b, "recall") }

// BenchmarkFig7PageAccess reproduces Fig 7 (page access vs k) at k=10.
func BenchmarkFig7PageAccess(b *testing.B) { fig5to9Metric(b, "pages") }

// BenchmarkFig8CPUTime reproduces Fig 8 (CPU time vs k) at k=10.
func BenchmarkFig8CPUTime(b *testing.B) { fig5to9Metric(b, "cpu") }

// BenchmarkFig9TotalTime reproduces Fig 9 (total time vs k) at k=10.
func BenchmarkFig9TotalTime(b *testing.B) { fig5to9Metric(b, "total") }

// BenchmarkFig10ImpactC reproduces Fig 10: ProMIPS accuracy/efficiency as
// the approximation ratio c varies.
func BenchmarkFig10ImpactC(b *testing.B) {
	env, _ := sharedEnv(b)
	for _, c := range []float64{0.7, 0.8, 0.9} {
		b.Run("c="+strconv.FormatFloat(c, 'f', 1, 64), func(b *testing.B) {
			bt, err := env.BuildProMIPS(bench.ProMIPSOptions{C: c})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Method.Close()
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Ratio, "ratio")
			b.ReportMetric(p.Pages, "pages/query")
		})
	}
}

// BenchmarkFig11ImpactP reproduces Fig 11: ProMIPS accuracy/efficiency as
// the guarantee probability p varies.
func BenchmarkFig11ImpactP(b *testing.B) {
	env, _ := sharedEnv(b)
	for _, pv := range []float64{0.3, 0.5, 0.7, 0.9} {
		b.Run("p="+strconv.FormatFloat(pv, 'f', 1, 64), func(b *testing.B) {
			bt, err := env.BuildProMIPS(bench.ProMIPSOptions{P: pv})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Method.Close()
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Ratio, "ratio")
			b.ReportMetric(p.Pages, "pages/query")
		})
	}
}

// BenchmarkConcurrentThroughput measures QPS of one shared index served
// through SearchBatch at GOMAXPROCS 1/2/4/8 — the batch pool's size — on
// the concurrent serving path (per-query I/O accounting, shared buffer
// pool, read-locked index).
func BenchmarkConcurrentThroughput(b *testing.B) {
	env, _ := sharedEnv(b)
	ix, err := promips.Build(env.Data, promips.Options{Dir: b.TempDir(), M: 6, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	// Warm the index (the query scratch pool, the CPU caches) so every
	// worker count runs against the same state.
	if _, _, err := ix.SearchBatch(context.Background(), env.Queries, 10); err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("procs="+strconv.Itoa(w), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			queries := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.SearchBatch(context.Background(), env.Queries, 10); err != nil {
					b.Fatal(err)
				}
				queries += len(env.Queries)
			}
			b.ReportMetric(float64(queries)/b.Elapsed().Seconds(), "qps")
		})
	}
}

// BenchmarkTable2Scaling supports the Table II complexity claims: ProMIPS
// query cost as n doubles (the per-query page count should grow clearly
// sub-linearly in n).
func BenchmarkTable2Scaling(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			env, err := bench.NewEnv(bench.Config{
				Spec: dataset.Netflix(), N: n, NumQueries: 5, Seed: 9,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			bt, err := env.BuildProMIPS(bench.ProMIPSOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Method.Close()
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Pages, "pages/query")
			b.ReportMetric(p.Pages/float64(n)*1000, "pages/kpoint")
		})
	}
}

// BenchmarkAblationQuickProbe compares Algorithm 3 (Quick-Probe) with
// Algorithm 1 (incremental NN) — the design §V motivates.
func BenchmarkAblationQuickProbe(b *testing.B) {
	env, _ := sharedEnv(b)
	qp, err := env.BuildProMIPS(bench.ProMIPSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer qp.Method.Close()
	inc, err := env.BuildProMIPSIncremental(bench.ProMIPSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer inc.Method.Close()
	for _, bt := range []bench.Built{qp, inc} {
		b.Run(bt.Method.Name(), func(b *testing.B) {
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Pages, "pages/query")
			b.ReportMetric(p.CPUms, "ms/query")
		})
	}
}

// BenchmarkAblationPartition compares the paper's new partition pattern
// against ring-only iDistance (§VI).
func BenchmarkAblationPartition(b *testing.B) {
	env, _ := sharedEnv(b)
	for _, tc := range []struct {
		name string
		ksp  int
	}{{"sub-partitions", 0}, {"ring-only", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			bt, err := env.BuildProMIPS(bench.ProMIPSOptions{Ksp: tc.ksp})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Method.Close()
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Pages, "pages/query")
		})
	}
}

// BenchmarkAblationProjDim sweeps the projected dimension m around the
// optimized value of §V-B.
func BenchmarkAblationProjDim(b *testing.B) {
	env, _ := sharedEnv(b)
	for _, m := range []int{4, 6, 8, 10} {
		b.Run("m="+strconv.Itoa(m), func(b *testing.B) {
			bt, err := env.BuildProMIPS(bench.ProMIPSOptions{M: m})
			if err != nil {
				b.Fatal(err)
			}
			defer bt.Method.Close()
			p, err := env.Measure(bt.Method, 10)
			if err != nil {
				b.Fatal(err)
			}
			runQueries(b, env, bt.Method, 10)
			b.ReportMetric(p.Ratio, "ratio")
			b.ReportMetric(p.Pages, "pages/query")
		})
	}
	b.Run("optimized-m-formula", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			randproj.OptimizedM(len(env.Data))
		}
	})
}
