package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"promips/internal/core"
	"promips/internal/dataset"
)

// This file is the repo's performance measurement rail: every perf PR is
// judged against a recorded BENCH_<label>.json produced by the same harness
// (cmd/benchrunner -out). The headline series is the sequential Search hot
// path (ns/op, allocs/op, B/op) plus the paper's Page Access metric and the
// concurrent-serving QPS curve, all on the default synthetic workload so
// runs are comparable across commits.

// PerfConfig selects the workload RunPerf measures. Zero values take the
// default synthetic workload: the Netflix analogue at n=4000 with 100
// member queries at k=10, seed 1 — the exact workload BenchmarkSearch and
// cmd/benchrunner -out use, so the two harnesses are comparable.
type PerfConfig struct {
	Label      string
	N          int
	NumQueries int
	K          int
	Seed       int64
	Workers    []int // worker counts for the QPS curve; nil = 1,2,4,8
}

func (c *PerfConfig) normalize() {
	if c.Label == "" {
		c.Label = "dev"
	}
	if c.N <= 0 {
		c.N = 4000
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 100
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers == nil {
		c.Workers = []int{1, 2, 4, 8}
	}
}

// PerfPoint is one benchmark loop's reduced measurements.
type PerfPoint struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	PagesPerOp  float64 `json:"pages_per_op"`
	CandsPerOp  float64 `json:"candidates_per_op"`
}

// BatchPoint is the concurrent-serving throughput at one worker count,
// with the per-worker diagnostics that make a flat or inverted scaling
// curve explainable from the report alone.
type BatchPoint struct {
	Workers       int     `json:"workers"`
	QPS           float64 `json:"qps"`
	Speedup       float64 `json:"speedup_vs_1,omitempty"`
	PagesPerQuery float64 `json:"pages_per_query,omitempty"`
	HitRatio      float64 `json:"hit_ratio,omitempty"`
}

// BatchModel records the I/O model the disk batch curve was measured
// under: a buffer pool deliberately smaller than the working set plus a
// simulated per-miss disk latency (the paper's own per-page cost model,
// PageCostMs). Under this model worker scaling measures what the sharded
// pager actually fixes — misses overlapping instead of serializing — and
// stays measurable on single-core CI machines, where a warm all-in-RAM
// curve cannot scale no matter the locking.
type BatchModel struct {
	PoolPages     int `json:"pool_pages"`
	MissLatencyUS int `json:"miss_latency_us"`
}

// PrefilterEffect is the A/B of the PQ-sketch subsystem (pre-ranking +
// exact bound pruning) over the whole query workload.
type PrefilterEffect struct {
	CandidatesWith    float64 `json:"candidates_with"`
	CandidatesWithout float64 `json:"candidates_without"`
	PagesWith         float64 `json:"pages_with"`
	PagesWithout      float64 `json:"pages_without"`
	PrerankedPerQuery float64 `json:"preranked_per_query"`
	PrunedPerQuery    float64 `json:"pruned_per_query"`
}

// InsertAckReport records what one acknowledged-durable update costs under
// FsyncAlways: serially (one updater pays one whole fsync per ack) and with
// Updaters concurrent inserters, where the group-commit sequencer coalesces
// every ack that overlaps an in-flight fsync onto the next one.
// AmortizationX = serial/parallel is the headline: how many fsyncs' worth of
// latency the coalescing saves per ack at this concurrency. FsyncNever is
// the no-durability floor the serial number is read against.
type InsertAckReport struct {
	Updaters          int     `json:"updaters"`
	SerialNsPerOp     int64   `json:"serial_ns_per_op"`
	ParallelNsPerOp   int64   `json:"parallel_ns_per_op"`
	AmortizationX     float64 `json:"amortization_x"`
	FsyncNeverNsPerOp int64   `json:"fsync_never_ns_per_op"`
}

// GatePoint is the reduced-workload pages/query measurement the CI perf
// gate re-runs and compares against (see TestPagesPerQueryGate): small
// enough to run on every test invocation, deterministic for a fixed seed.
type GatePoint struct {
	N             int     `json:"n"`
	NumQueries    int     `json:"num_queries"`
	K             int     `json:"k"`
	Seed          int64   `json:"seed"`
	PagesPerQuery float64 `json:"pages_per_query"`
}

// PerfReport is the JSON document benchrunner -out emits.
type PerfReport struct {
	Label      string `json:"label"`
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Dataset    string `json:"dataset"`
	N          int    `json:"n"`
	D          int    `json:"d"`
	M          int    `json:"m"`
	K          int    `json:"k"`
	NumQueries int    `json:"num_queries"`
	Seed       int64  `json:"seed"`

	Search      PerfPoint `json:"search"`
	Incremental PerfPoint `json:"search_incremental"`
	// Filtered is the same hot path with a WithFilter predicate rejecting
	// half the ids — the filtered-serving workload promipsd exposes.
	Filtered PerfPoint `json:"search_filtered"`
	// InsertAck tracks the acknowledged-update cost under group commit.
	InsertAck *InsertAckReport `json:"insert_ack,omitempty"`
	// Batch is the disk-model concurrent-serving curve (see BatchModel);
	// BatchWarm is the warm all-in-RAM curve earlier reports called
	// batch_qps, kept for cross-report continuity.
	Batch      []BatchPoint `json:"batch_qps"`
	BatchModel *BatchModel  `json:"batch_model,omitempty"`
	BatchWarm  []BatchPoint `json:"batch_qps_warm,omitempty"`

	// Shards is the scale-out curve: disk-model SearchBatch QPS of the
	// same workload at growing shard counts under the node-per-shard
	// model — each shard owns a standard disk-model pool and miss
	// channel (see MeasureShardScaling).
	Shards []ShardPoint `json:"shard_scaling,omitempty"`

	// DegradedSearch is the failure-isolation tail-latency measurement:
	// one slow shard, with and without per-shard deadlines (see
	// MeasureDegradedSearch).
	DegradedSearch []DegradedPoint `json:"degraded_search,omitempty"`

	// Mixed is the non-blocking-updates measurement: search p50/p99 under
	// a concurrent insert stream driving freezes, seg-file flushes and
	// (per cell) background compaction, against the same searchers
	// read-only (see MeasureMixedWorkload). The acceptance headline is
	// each cell's mixed-p99 / read-only-p99 ratio.
	Mixed []MixedPoint `json:"mixed_workload,omitempty"`

	Prefilter *PrefilterEffect `json:"pq_prefilter,omitempty"`
	Gate      *GatePoint       `json:"gate,omitempty"`

	// Baseline embeds the prior run this one is compared against
	// (benchrunner -baseline), and Delta the relative change of the headline
	// Search metrics: negative ns/op or allocs/op percentages are
	// improvements.
	Baseline *PerfReport `json:"baseline,omitempty"`
	Delta    *PerfDelta  `json:"delta_vs_baseline,omitempty"`
}

// PerfDelta is the relative change of the headline metrics vs the baseline,
// in percent (negative = faster / fewer).
type PerfDelta struct {
	SearchNsPerOpPct     float64 `json:"search_ns_per_op_pct"`
	SearchAllocsPerOpPct float64 `json:"search_allocs_per_op_pct"`
	SearchBytesPerOpPct  float64 `json:"search_bytes_per_op_pct"`
	SearchPagesPerOpPct  float64 `json:"search_pages_per_op_pct"`
}

// RunPerf measures the query hot path on the default synthetic workload and
// returns the report. The environment is built once; the buffer pool is
// warmed before any timed loop so every run measures the steady state.
// ctx bounds the whole run (benchrunner's -timeout): it is threaded into
// every query the harness issues and checked between measurement stages.
func RunPerf(ctx context.Context, cfg PerfConfig) (*PerfReport, error) {
	cfg.normalize()
	env, err := NewEnv(Config{Spec: defaultSpec(), N: cfg.N, NumQueries: cfg.NumQueries, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	b, err := env.BuildProMIPS(ProMIPSOptions{})
	if err != nil {
		return nil, err
	}
	defer b.Method.Close()
	ix := b.Method.(proMIPSAdapter).ix

	rep := &PerfReport{
		Label:      cfg.Label,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Dataset:    env.Cfg.Spec.Name,
		N:          len(env.Data),
		D:          env.Cfg.Spec.D,
		M:          ix.M(),
		K:          cfg.K,
		NumQueries: len(env.Queries),
		Seed:       cfg.Seed,
	}

	// Warm the buffer pool: one untimed pass over the whole workload.
	for _, q := range env.Queries {
		if _, _, err := ix.Search(q, cfg.K); err != nil {
			return nil, err
		}
	}

	rep.Search, err = measureSearch(env, cfg.K, func(q []float32, k int) error {
		_, _, err := ix.Search(q, k)
		return err
	}, func(q []float32, k int) (core.SearchStats, error) {
		_, st, err := ix.Search(q, k)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	rep.Incremental, err = measureSearch(env, cfg.K, func(q []float32, k int) error {
		_, _, err := ix.SearchIncremental(q, k)
		return err
	}, func(q []float32, k int) (core.SearchStats, error) {
		_, st, err := ix.SearchIncremental(q, k)
		return st, err
	})
	if err != nil {
		return nil, err
	}

	// Filtered hot path: the same workload with a predicate rejecting every
	// even id — the filtered-serving shape (WithFilter / promipsd requests
	// carrying a tenant predicate). Tracked so a regression in the
	// filter-aware candidate path shows up in the trajectory, not just in
	// unit tests.
	filtered := core.SearchParams{Filter: func(id uint32) bool { return id%2 == 1 }}
	rep.Filtered, err = measureSearch(env, cfg.K, func(q []float32, k int) error {
		_, _, err := ix.SearchContext(ctx, q, k, filtered)
		return err
	}, func(q []float32, k int) (core.SearchStats, error) {
		_, st, err := ix.SearchContext(ctx, q, k, filtered)
		return st, err
	})
	if err != nil {
		return nil, err
	}

	// PQ-prefilter A/B: the same warm index and workload with the sketch
	// subsystem (pre-ranking + exact bound pruning) on and off.
	rep.Prefilter, err = measurePrefilter(ctx, env, ix, cfg.K)
	if err != nil {
		return nil, err
	}

	// Warm in-RAM concurrent curve (cross-report continuity; on a
	// single-core machine it is flat by construction).
	rep.BatchWarm, err = measureBatchCurve(ctx, env, ix, cfg.K, cfg.Workers)
	if err != nil {
		return nil, err
	}

	// Headline concurrent curve under the disk-resident model: a pool far
	// smaller than the working set plus the paper's per-page cost
	// (PageCostMs) as simulated miss latency, on a dedicated index build.
	// Worker scaling here measures miss overlap — the property the sharded
	// pager's lock-free miss path provides.
	rep.BatchModel = &BatchModel{PoolPages: DiskModelPoolPages, MissLatencyUS: int(DiskModelMissLatency / time.Microsecond)}
	bDisk, err := env.BuildProMIPS(ProMIPSOptions{PoolSize: DiskModelPoolPages, MissLatency: DiskModelMissLatency})
	if err != nil {
		return nil, err
	}
	defer bDisk.Method.Close()
	ixDisk := bDisk.Method.(proMIPSAdapter).ix
	// One settling pass so the first measured point does not pay the
	// fully-cold pool alone.
	if _, _, err := ixDisk.SearchBatch(ctx, env.Queries, cfg.K, 4, core.SearchParams{}); err != nil {
		return nil, err
	}
	rep.Batch, err = measureBatchCurve(ctx, env, ixDisk, cfg.K, cfg.Workers)
	if err != nil {
		return nil, err
	}

	// Scale-out curve: the disk model at 8 workers across shard counts,
	// one standard pool + miss channel per shard (node-per-shard model).
	rep.Shards, err = MeasureShardScaling(ctx, env, []int{1, 2, 4, 8}, cfg.K, 8, 3)
	if err != nil {
		return nil, err
	}

	// Failure-isolation tail latency: one slow shard with and without
	// per-shard deadlines, on a 4-shard build of the same workload.
	rep.DegradedSearch, err = MeasureDegradedSearch(ctx, env, 4, cfg.K)
	if err != nil {
		return nil, err
	}

	// Acknowledged-update cost under group commit: serial vs 8 concurrent
	// updaters under FsyncAlways, with the FsyncNever floor.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.InsertAck, err = MeasureInsertAck(8, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Non-blocking updates: the search tail under a live insert stream
	// (and background auto-compaction), against the read-only tail.
	rep.Mixed, err = MeasureMixedWorkload(ctx, env, nil, cfg.K)
	if err != nil {
		return nil, err
	}

	// Reduced-workload gate point for the CI pages/query regression gate.
	rep.Gate, err = measureGate(cfg.Seed, cfg.K)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// MeasureInsertAck times one acknowledged Insert under FsyncAlways with a
// single updater and with `updaters` concurrent ones (the group-commit
// amortization measurement BenchmarkInsertAckParallel runs interactively),
// plus the FsyncNever floor. Exported so benchrunner's report and ad-hoc
// measurements share one harness.
func MeasureInsertAck(updaters int, seed int64) (*InsertAckReport, error) {
	r := rand.New(rand.NewSource(seed))
	data := make([][]float32, 500)
	for i := range data {
		v := make([]float32, 50)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	run := func(fsync core.FsyncPolicy, par int) (int64, error) {
		dir, err := os.MkdirTemp("", "promips-ackbench-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		ix, err := core.Build(context.Background(), data, dir, core.Options{M: 5, Seed: seed + 1, Fsync: fsync})
		if err != nil {
			return 0, err
		}
		defer ix.Close()
		var loopErr error
		res := testing.Benchmark(func(tb *testing.B) {
			if par <= 1 {
				for i := 0; i < tb.N; i++ {
					if _, err := ix.Insert(data[i%len(data)]); err != nil {
						loopErr = err
						tb.FailNow()
					}
				}
				return
			}
			// RunParallel spawns SetParallelism×GOMAXPROCS goroutines; round
			// up so `par` concurrent updaters exist even on one core — the
			// coalescing being measured happens while goroutines BLOCK in
			// fsync, so it does not need parallel CPUs.
			tb.SetParallelism((par + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			tb.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := ix.Insert(data[i%len(data)]); err != nil {
						loopErr = err
						break
					}
					i++
				}
			})
		})
		if loopErr != nil {
			return 0, loopErr
		}
		return res.NsPerOp(), nil
	}
	rep := &InsertAckReport{Updaters: updaters}
	var err error
	if rep.SerialNsPerOp, err = run(core.FsyncAlways, 1); err != nil {
		return nil, err
	}
	if rep.ParallelNsPerOp, err = run(core.FsyncAlways, updaters); err != nil {
		return nil, err
	}
	if rep.FsyncNeverNsPerOp, err = run(core.FsyncNever, 1); err != nil {
		return nil, err
	}
	if rep.ParallelNsPerOp > 0 {
		rep.AmortizationX = float64(rep.SerialNsPerOp) / float64(rep.ParallelNsPerOp)
	}
	return rep, nil
}

// Disk-model parameters of the headline batch curve: the pool covers a
// fraction of the default workload's working set and each miss costs the
// paper's per-page charge (PageCostMs = 0.1ms).
const (
	DiskModelPoolPages   = 128
	DiskModelMissLatency = time.Duration(PageCostMs * float64(time.Millisecond))
)

// measureBatchCurve pushes the whole query workload through SearchBatch at
// each worker count, recording QPS, speedup vs the first count, per-query
// pages and the buffer-pool hit ratio over the interval.
func measureBatchCurve(ctx context.Context, env *Env, ix *core.Index, k int, workers []int) ([]BatchPoint, error) {
	var out []BatchPoint
	var base float64
	for _, w := range workers {
		before := ix.CacheStats()
		start := time.Now()
		_, stats, err := ix.SearchBatch(ctx, env.Queries, k, w, core.SearchParams{})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		interval := ix.CacheStats().Sub(before)
		var pages float64
		for _, st := range stats {
			pages += float64(st.PageAccesses)
		}
		nq := float64(len(env.Queries))
		qps := nq / elapsed
		if base == 0 {
			base = qps
		}
		out = append(out, BatchPoint{
			Workers:       w,
			QPS:           qps,
			Speedup:       qps / base,
			PagesPerQuery: pages / nq,
			HitRatio:      interval.HitRatio(),
		})
	}
	return out, nil
}

// measurePrefilter runs the workload with the PQ-sketch subsystem off and
// on, recording verified candidates and pages per query for both.
func measurePrefilter(ctx context.Context, env *Env, ix *core.Index, k int) (*PrefilterEffect, error) {
	eff := &PrefilterEffect{}
	for _, noPrerank := range []bool{true, false} {
		var cands, pages, preranked, pruned float64
		for _, q := range env.Queries {
			_, st, err := ix.SearchContext(ctx, q, k, core.SearchParams{NoPrerank: noPrerank})
			if err != nil {
				return nil, err
			}
			cands += float64(st.Candidates)
			pages += float64(st.PageAccesses)
			preranked += float64(st.Preranked)
			pruned += float64(st.NormPruned)
		}
		nq := float64(len(env.Queries))
		if noPrerank {
			eff.CandidatesWithout = cands / nq
			eff.PagesWithout = pages / nq
		} else {
			eff.CandidatesWith = cands / nq
			eff.PagesWith = pages / nq
			eff.PrerankedPerQuery = preranked / nq
			eff.PrunedPerQuery = pruned / nq
		}
	}
	return eff, nil
}

// measureGate measures pages/query on the reduced gate workload — the
// exact measurement TestPagesPerQueryGate re-runs against the committed
// report, shared via GatePagesPerQuery so the two cannot drift apart.
func measureGate(seed int64, k int) (*GatePoint, error) {
	gate := &GatePoint{N: 1500, NumQueries: 25, K: k, Seed: seed}
	pages, err := GatePagesPerQuery(*gate)
	if err != nil {
		return nil, err
	}
	gate.PagesPerQuery = pages
	return gate, nil
}

// GatePagesPerQuery builds the gate workload described by g (ignoring its
// recorded PagesPerQuery) and returns the measured pages/query. Both the
// report generator and the CI gate call this, so the compared numbers come
// from one code path by construction.
func GatePagesPerQuery(g GatePoint) (float64, error) {
	env, err := NewEnv(Config{Spec: defaultSpec(), N: g.N, NumQueries: g.NumQueries, Seed: g.Seed})
	if err != nil {
		return 0, err
	}
	defer env.Close()
	b, err := env.BuildProMIPS(ProMIPSOptions{})
	if err != nil {
		return 0, err
	}
	defer b.Method.Close()
	ix := b.Method.(proMIPSAdapter).ix
	var pages float64
	for _, q := range env.Queries {
		_, st, err := ix.Search(q, g.K)
		if err != nil {
			return 0, err
		}
		pages += float64(st.PageAccesses)
	}
	return pages / float64(len(env.Queries)), nil
}

// measureSearch times one query entry point with testing.Benchmark and
// augments the result with the paper's per-query page/candidate averages.
func measureSearch(env *Env, k int, run func(q []float32, k int) error,
	stat func(q []float32, k int) (core.SearchStats, error)) (PerfPoint, error) {
	var loopErr error
	res := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			q := env.Queries[i%len(env.Queries)]
			if err := run(q, k); err != nil {
				loopErr = err
				tb.FailNow()
			}
		}
	})
	if loopErr != nil {
		return PerfPoint{}, loopErr
	}
	var pages, cands float64
	for _, q := range env.Queries {
		st, err := stat(q, k)
		if err != nil {
			return PerfPoint{}, err
		}
		pages += float64(st.PageAccesses)
		cands += float64(st.Candidates)
	}
	nq := float64(len(env.Queries))
	return PerfPoint{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Iterations:  res.N,
		PagesPerOp:  pages / nq,
		CandsPerOp:  cands / nq,
	}, nil
}

// defaultSpec is the default synthetic workload's dataset: the Netflix
// analogue (d=300, 4KB pages, m=6).
func defaultSpec() dataset.Spec { return dataset.Netflix() }

// CompareToBaseline embeds prior into rep and fills the headline deltas.
func (rep *PerfReport) CompareToBaseline(prior *PerfReport) {
	// Strip any nested baseline so reports don't grow into chains.
	p := *prior
	p.Baseline, p.Delta = nil, nil
	rep.Baseline = &p
	rep.Delta = &PerfDelta{
		SearchNsPerOpPct:     pct(float64(rep.Search.NsPerOp), float64(p.Search.NsPerOp)),
		SearchAllocsPerOpPct: pct(float64(rep.Search.AllocsPerOp), float64(p.Search.AllocsPerOp)),
		SearchBytesPerOpPct:  pct(float64(rep.Search.BytesPerOp), float64(p.Search.BytesPerOp)),
		SearchPagesPerOpPct:  pct(rep.Search.PagesPerOp, p.Search.PagesPerOp),
	}
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// WriteFile marshals the report to path as indented JSON.
func (rep *PerfReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPerfReport reads a report written by WriteFile.
func LoadPerfReport(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &rep, nil
}
