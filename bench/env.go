// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation section (§VIII). It owns dataset/query
// setup, builds all four methods against the same pager-based disk
// substrate, and reduces per-query measurements to the paper's metrics:
// overall ratio, recall, page access, CPU time and total time.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"promips/exact"
	"promips/internal/core"
	"promips/internal/dataset"
	"promips/internal/h2alsh"
	"promips/internal/pq"
	"promips/internal/rangelsh"
	"promips/mips"
)

// Config describes one experimental environment.
type Config struct {
	Spec       dataset.Spec
	N          int // points; 0 = Spec.DefaultN
	NumQueries int // 0 = 100 (the paper's workload)
	Seed       int64
	WorkDir    string // page files live here; "" = temp dir

	// C and P are ProMIPS' approximation ratio and guarantee probability
	// (defaults 0.9 and 0.5 per §VIII-A-4).
	C, P float64
}

func (c *Config) normalize() {
	if c.N <= 0 {
		c.N = c.Spec.DefaultN
	}
	if c.NumQueries <= 0 {
		c.NumQueries = 100
	}
	if c.C == 0 {
		c.C = 0.9
	}
	if c.P == 0 {
		c.P = 0.5
	}
}

// Env is a prepared dataset + query workload with cached ground truth.
type Env struct {
	Cfg     Config
	Data    [][]float32
	Queries [][]float32

	gtMax *exact.GroundTruth // ground truth at the largest k used
	dir   string
	owns  bool
}

// NewEnv generates the data and query workload.
func NewEnv(cfg Config) (*Env, error) {
	cfg.normalize()
	dir := cfg.WorkDir
	owns := false
	if dir == "" {
		d, err := os.MkdirTemp("", "promips-bench-*")
		if err != nil {
			return nil, err
		}
		dir, owns = d, true
	}
	data := cfg.Spec.Generate(cfg.N, cfg.Seed)
	// The paper's workload: "100 points are randomly selected as the query
	// points" — queries are dataset members, so popular (large-norm) points
	// appear among the queries at their natural rate.
	rng := rand.New(rand.NewSource(cfg.Seed + 0x51ED))
	queries := make([][]float32, cfg.NumQueries)
	for i := range queries {
		queries[i] = data[rng.Intn(len(data))]
	}
	return &Env{Cfg: cfg, Data: data, Queries: queries, dir: dir, owns: owns}, nil
}

// Close removes the environment's temporary directory.
func (e *Env) Close() error {
	if e.owns {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// GroundTruth returns exact top-k answers for every query, cached at the
// largest k requested so far (smaller k reuse the prefix).
func (e *Env) GroundTruth(k int) *exact.GroundTruth {
	if e.gtMax == nil || e.gtMax.K < k {
		e.gtMax = exact.Compute(e.Data, e.Queries, k)
	}
	if e.gtMax.K == k {
		return e.gtMax
	}
	pref := &exact.GroundTruth{K: k, Queries: e.gtMax.Queries, TopK: make([][]mips.Result, e.gtMax.Queries)}
	for i, full := range e.gtMax.TopK {
		if k < len(full) {
			pref.TopK[i] = full[:k]
		} else {
			pref.TopK[i] = full
		}
	}
	return pref
}

// MethodNames lists the four evaluated methods in the paper's order.
func MethodNames() []string { return []string{"ProMIPS", "H2-ALSH", "Range-LSH", "PQ-Based"} }

// Built is a constructed method with its pre-processing measurements
// (Fig 4's two panels).
type Built struct {
	Method     mips.Method
	BuildTime  time.Duration
	IndexBytes int64
}

// proMIPSAdapter exposes core.Index as a mips.Method.
type proMIPSAdapter struct{ ix *core.Index }

func (a proMIPSAdapter) Name() string { return "ProMIPS" }
func (a proMIPSAdapter) Search(q []float32, k int) ([]mips.Result, mips.QueryStats, error) {
	res, st, err := a.ix.Search(q, k)
	if err != nil {
		return nil, mips.QueryStats{}, err
	}
	out := make([]mips.Result, len(res))
	for i, r := range res {
		out[i] = mips.Result{ID: r.ID, IP: r.IP}
	}
	return out, mips.QueryStats{PageAccesses: st.PageAccesses, Candidates: st.Candidates}, nil
}
func (a proMIPSAdapter) IndexSizeBytes() int64 { return a.ix.Sizes().Total() }
func (a proMIPSAdapter) Close() error          { return a.ix.Close() }

// proMIPSIncrementalAdapter drives Algorithm 1 instead of Quick-Probe, for
// the ablation benchmark.
type proMIPSIncrementalAdapter struct{ ix *core.Index }

func (a proMIPSIncrementalAdapter) Name() string { return "ProMIPS-Incremental" }
func (a proMIPSIncrementalAdapter) Search(q []float32, k int) ([]mips.Result, mips.QueryStats, error) {
	res, st, err := a.ix.SearchIncremental(q, k)
	if err != nil {
		return nil, mips.QueryStats{}, err
	}
	out := make([]mips.Result, len(res))
	for i, r := range res {
		out[i] = mips.Result{ID: r.ID, IP: r.IP}
	}
	return out, mips.QueryStats{PageAccesses: st.PageAccesses, Candidates: st.Candidates}, nil
}
func (a proMIPSIncrementalAdapter) IndexSizeBytes() int64 { return a.ix.Sizes().Total() }
func (a proMIPSIncrementalAdapter) Close() error          { return a.ix.Close() }

// ProMIPSOptions selects the ProMIPS build parameters for one experiment.
// Zero fields fall back to the environment's config and the dataset spec
// (c, p, m, page size, seed), then to the paper's defaults. It mirrors
// promips.Options without the directory field — the harness owns its work
// directories — plus the iDistance partition-pattern knobs the ablations
// vary (promips.Options fixes those at the paper's values), so the
// package's exported surface stays free of internal types.
type ProMIPSOptions struct {
	C, P          float64
	M             int
	Kp, Nkey, Ksp int
	Epsilon       float64
	PageSize      int
	PoolSize      int
	Seed          int64
}

func (o ProMIPSOptions) core() core.Options {
	return core.Options{
		C: o.C, P: o.P, M: o.M,
		Kp: o.Kp, Nkey: o.Nkey, Ksp: o.Ksp, Epsilon: o.Epsilon,
		PageSize: o.PageSize, PoolSize: o.PoolSize,
		Seed: o.Seed,
	}
}

// BuildProMIPS builds the ProMIPS index with the paper's per-dataset
// parameters. Extra options (c, p, m, ksp) come from cfg and the spec.
func (e *Env) BuildProMIPS(popts ProMIPSOptions) (Built, error) {
	opts := popts.core()
	dir := filepath.Join(e.dir, fmt.Sprintf("promips-%d", time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Built{}, err
	}
	if opts.C == 0 {
		opts.C = e.Cfg.C
	}
	if opts.P == 0 {
		opts.P = e.Cfg.P
	}
	if opts.M == 0 {
		opts.M = e.Cfg.Spec.M
	}
	if opts.PageSize == 0 {
		opts.PageSize = e.Cfg.Spec.PageSize
	}
	if opts.Seed == 0 {
		opts.Seed = e.Cfg.Seed
	}
	start := time.Now()
	ix, err := core.Build(context.Background(), e.Data, dir, opts)
	if err != nil {
		return Built{}, fmt.Errorf("build ProMIPS: %w", err)
	}
	return Built{Method: proMIPSAdapter{ix}, BuildTime: time.Since(start), IndexBytes: ix.Sizes().Total()}, nil
}

// BuildProMIPSIncremental builds the same index but queries it with
// Algorithm 1 (for the Quick-Probe ablation).
func (e *Env) BuildProMIPSIncremental(opts ProMIPSOptions) (Built, error) {
	b, err := e.BuildProMIPS(opts)
	if err != nil {
		return Built{}, err
	}
	ad := b.Method.(proMIPSAdapter)
	b.Method = proMIPSIncrementalAdapter{ad.ix}
	return b, nil
}

// Build constructs one method by name with the paper's settings.
func (e *Env) Build(name string) (Built, error) {
	if name == "ProMIPS" {
		return e.BuildProMIPS(ProMIPSOptions{}) // manages its own directory
	}
	spec := e.Cfg.Spec
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Built{}, err
	}
	start := time.Now()
	switch name {
	case "H2-ALSH":
		ix, err := h2alsh.Build(e.Data, dir, h2alsh.Config{
			C0: 2.0, PageSize: spec.PageSize, Seed: e.Cfg.Seed,
		})
		if err != nil {
			return Built{}, fmt.Errorf("build H2-ALSH: %w", err)
		}
		return Built{Method: ix, BuildTime: time.Since(start), IndexBytes: ix.IndexSizeBytes()}, nil
	case "Range-LSH":
		ix, err := rangelsh.Build(e.Data, dir, rangelsh.Config{
			Partitions: 32, CodeLength: 16, PageSize: spec.PageSize, Seed: e.Cfg.Seed,
		})
		if err != nil {
			return Built{}, fmt.Errorf("build Range-LSH: %w", err)
		}
		return Built{Method: ix, BuildTime: time.Since(start), IndexBytes: ix.IndexSizeBytes()}, nil
	case "PQ-Based":
		// TrainSample/MaxIter bound the codebook k-means cost at laptop
		// scale; the paper's 16×256 quantizer geometry is kept.
		ix, err := pq.Build(e.Data, dir, pq.Config{
			Subspaces: 16, Centroids: 256, ProbeCells: 16,
			TrainSample: 3000, MaxIter: 6,
			PageSize: spec.PageSize, Seed: e.Cfg.Seed,
		})
		if err != nil {
			return Built{}, fmt.Errorf("build PQ-Based: %w", err)
		}
		return Built{Method: ix, BuildTime: time.Since(start), IndexBytes: ix.IndexSizeBytes()}, nil
	default:
		return Built{}, fmt.Errorf("bench: unknown method %q", name)
	}
}

// BuildAll constructs the requested methods (nil = all four).
func (e *Env) BuildAll(names []string) ([]Built, error) {
	if names == nil {
		names = MethodNames()
	}
	out := make([]Built, 0, len(names))
	for _, n := range names {
		b, err := e.Build(n)
		if err != nil {
			for _, prev := range out {
				prev.Method.Close()
			}
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
