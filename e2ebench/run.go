package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"promips"
	"promips/shard"
)

// config is what the command line fixes for every run it makes.
type config struct {
	promipsd string  // path of the built server binary
	workDir  string  // index directories and the child's pid file live here
	outDir   string  // run records and trace files are written here
	seconds  float64 // measured time per run
	trace    bool
	rate     float64 // overrides the workload's frozen open-loop rate when > 0 (overload tests)
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, and the last set-up is the one that gets served.
const setupRepeats = 3

// Shares of -seconds given to the two timed phases. A traced run keeps
// them short: its time goes to the ladder.
const (
	closedShare, openShare             = 0.3, 0.7
	tracedClosedShare, tracedOpenShare = 0.3, 0.3
)

// defaultSegmentEntries is promips.Options.SegmentEntries' default: the
// delta size at which an index freezes a segment.
const defaultSegmentEntries = 4096

// environment records where a number was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: "unknown"}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	// A benchmark checkout is not a repository; do not climb out of it.
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		env.GitRev = strings.TrimSpace(string(out))
	}
	return env
}

// record is one run's full result: what -compare reads and what is
// written under -out. The contract line on stdout is a subset of it.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Env       environment        `json:"env"`
	Phases    map[string]float64 `json:"phase_seconds"`
	Rate      float64            `json:"open_rate_per_s"`
	Pace      float64            `json:"pace"` // median over the timed slices; a time printed / pace = the time measured
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Saturated []string           `json:"saturated,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	generate, build, save, ready float64 // seconds
	indexBytes                   int64
}

func (t setupTimes) total() float64 { return t.generate + t.build + t.save + t.ready }

// setUp generates the inputs, builds and saves the index under dir and
// starts promipsd over it. built, when not nil, gets the index after Save
// and before Close, outside the timed steps.
func setUp(ctx context.Context, cfg *config, w *workload, seed int64, dir string, built func(*inputs, *shard.Index) error) (*inputs, *server, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	in := makeInputs(w, seed)
	t.generate = time.Since(t0).Seconds()

	t0 = time.Now()
	six, err := shard.Build(in.data, shard.Options{Shards: w.Shards, Dir: dir,
		Index: promips.Options{C: ratioC, P: probP, M: projM, PoolSize: w.PoolSize, Seed: corpusSeed}})
	if err != nil {
		return nil, nil, t, fmt.Errorf("build: %w", err)
	}
	t.build = time.Since(t0).Seconds()

	t0 = time.Now()
	err = six.Save()
	t.save = time.Since(t0).Seconds()
	if err == nil && built != nil {
		err = built(in, six)
	}
	t0 = time.Now()
	if cerr := six.Close(); err == nil {
		err = cerr
	}
	t.save += time.Since(t0).Seconds()
	if err != nil {
		return nil, nil, t, fmt.Errorf("save: %w", err)
	}
	if t.indexBytes, err = dirBytes(dir); err != nil {
		return nil, nil, t, err
	}

	t0 = time.Now()
	srv, err := startServer(ctx, cfg.promipsd, dir, cfg.workDir)
	if err != nil {
		return nil, nil, t, err
	}
	t.ready = time.Since(t0).Seconds()
	return in, srv, t, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		total += info.Size()
		return err
	})
	return total, err
}

// runWorkload performs one run of w: set-up, preload, warm-up, the closed
// and open timed phases, then either the quality set (untraced) or the
// per-layer ladder (traced). It returns an error only when the run could
// not be carried out; a run that finished with wrong answers or a
// saturated generator comes back as a record with Correct false.
func runWorkload(ctx context.Context, cfg *config, w *workload, seed int64, env environment) (*record, error) {
	if err := checkNoStaleChild(cfg.workDir); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rate := w.Rate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	closedDur, openDur := phaseDur(cfg.seconds, closedShare), phaseDur(cfg.seconds, openShare)
	repeats := setupRepeats
	if cfg.trace {
		closedDur, openDur = phaseDur(cfg.seconds, tracedClosedShare), phaseDur(cfg.seconds, tracedOpenShare)
		repeats = 1
	}
	rec := &record{Workload: w.Name, Seed: seed, Env: env, Rate: rate,
		Phases: map[string]float64{"closed": closedDur.Seconds(), "open": openDur.Seconds()}}
	e2e, layers := newMetricSet(endToEnd), newMetricSet(perLayer)

	// Set-up, several times over: the last one is served.
	var in *inputs
	var srv *server
	var setups []float64
	var su setupTimes
	var baseSearchMs float64
	idxDir := filepath.Join(runDir, "index")
	cal := newCalibrator()
	pre := cal.pace()
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.kill()
			if err := os.RemoveAll(idxDir); err != nil {
				return nil, err
			}
		}
		var built func(*inputs, *shard.Index) error
		if cfg.trace && w.Preload > 0 {
			// The same queries on the same index before any backlog: the
			// base of promips.memscan_ms.
			built = func(in *inputs, six *shard.Index) (err error) {
				r := &runner{w: w, seed: seed, in: in, cal: cal}
				baseSearchMs, err = r.localSearchMs(ctx, six, r.ladderOps())
				return err
			}
		}
		if in, srv, su, err = setUp(ctx, cfg, w, seed, idxDir, built); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Like every time of an untraced run, in reference-machine seconds.
		post := cal.pace()
		setups = append(setups, su.total()*(pre+post)/2)
		pre = post
	}
	defer srv.kill()
	r := &runner{w: w, seed: seed, in: in, cl: newClient(srv.base), model: newModel(in.data), cal: cal, srv: srv}
	clients := runtime.NumCPU()
	total := &tally{}
	problem := func(format string, a ...any) { rec.Problems = append(rec.Problems, fmt.Sprintf(format, a...)) }

	if w.Preload > 0 {
		loaded := r.closedLoop(ctx, clients, w.Preload, func(int) op { return op{kind: opInsert} })
		st, err := r.cl.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("stats after preload: %w", err)
		}
		wantFreezes := int64(w.Shards * (w.Preload / w.Shards / defaultSegmentEntries))
		if got := st.Updates.DeltaEntries + st.Updates.SegmentEntries; loaded.failed > 0 || got != w.Preload || st.Updates.Freezes < wantFreezes {
			return nil, fmt.Errorf("preload: %d of %d inserts failed, %d un-compacted entries (want %d), %d freezes (want >= %d)",
				loaded.failed, w.Preload, got, w.Preload, st.Updates.Freezes, wantFreezes)
		}
		layers.set("wal.preload_inserts_per_s", float64(w.Preload)/loaded.elapsed.Seconds())
	}

	opsOf := func(phase uint64) func(int) op {
		return func(i int) op { return w.opAt(seed, phase, i) }
	}
	if warm := r.closedLoop(ctx, clients, w.Warmup, opsOf(phaseWarmup)); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.attempted)
	}

	// Closed loop: capacity. Bracketed by the server's own counters.
	st0, err := r.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	srvCPU0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	selfCPU0 := selfCPUSeconds() - cal.cpu
	closed := r.closedPhase(ctx, clients, closedDur, opsOf(phaseClosed))
	srvCPU1, _ := srv.cpuSeconds()
	st1, err := r.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	total.merge(closed.tally)

	// Open loop: latency at the frozen rate.
	var spans *tracer
	if cfg.trace {
		spans = &tracer{t0: time.Now()}
	}
	open := r.openPhase(ctx, schedule(seed, rate, openDur), openDur, spans)
	srvCPU2, _ := srv.cpuSeconds()
	selfCPU2 := selfCPUSeconds() - cal.cpu
	total.merge(open.tally)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpuShare := (selfCPU2 - selfCPU0) / (selfCPU2 - selfCPU0 + srvCPU2 - srvCPU0)
	rec.Saturated = saturation(open, cpuShare)

	primary := sortedCopy(latencies(open.samples, w.isPrimary))
	// The tail percentile follows from the EXPECTED sample count, a
	// constant of the workload, so that it cannot flip between two runs
	// that differ by a request.
	tailP := tailPercentile(int(rate * openDur.Seconds() * w.primaryShare()))
	if len(primary) == 0 || len(closed.samples) == 0 {
		return nil, errors.New("no operation succeeded in a timed phase")
	}

	if cfg.trace {
		searches := 0.0
		for _, s := range closed.samples {
			searches += float64(s.vectors)
		}
		cache := st1.Cache.Sub(st0.Cache)
		layers.set("pager.hit_ratio", cache.HitRatio())
		layers.set("pager.misses_per_query", float64(cache.Misses)/searches)
		layers.set("pager.evictions_per_query", float64(cache.Evictions)/searches)
		layers.set("promipsd.cpu_ms_per_op", (srvCPU1-srvCPU0)*1e3/float64(closed.attempted-closed.failed))
		layers.set("promipsd.refused_429", float64(total.byOutcome[refused]))
		layers.set("promipsd.deadline_504", float64(total.byOutcome[deadline]))
		layers.set("promipsd.fail_ratio", float64(total.failed)/float64(total.attempted))
		ack := sortedCopy(latencies(open.samples, func(k opKind) bool { return k == opInsert }))
		layers.set("wal.insert_ack_p50_ms", percentile(ack, 50))
		layers.set("wal.insert_ack_p99_ms", percentile(ack, tailPercentile(len(ack))))
		late := sortedCopy(open.lateMs)
		layers.set("loadgen.late_p90_ms", percentile(late, 90))
		layers.set("loadgen.late_p99_ms", percentile(late, 99))
		inflightMax := 0
		for _, n := range open.inflight {
			inflightMax = max(inflightMax, n)
		}
		layers.set("loadgen.inflight_max", float64(inflightMax))
		layers.set("loadgen.cpu_share", cpuShare)
		layers.set("loadgen.open_samples", float64(len(primary)))
		layers.set("loadgen.tail_ms", percentile(primary, tailP))
		layers.set("loadgen.tail_percentile", tailP)
		layers.set("loadgen.pace", median(r.paces))
		layers.set("loadgen.traced_p50_ms", percentile(primary, 50))
		layers.set("build.generate_s", su.generate)
		layers.set("build.build_s", su.build)
		layers.set("build.save_s", su.save)
		layers.set("build.ready_s", su.ready)
		layers.set("build.index_bytes", float64(su.indexBytes))
	} else {
		q, err := r.measureQuality(ctx)
		if err != nil {
			problem("%v", err)
		} else if q.guaranteed < probP {
			problem("only %.3f of the quality set meets <o_i,q> >= c<o*_i,q> at every rank; the index promises %.2f", q.guaranteed, probP)
		}
		e2e.set("setup_s", median(setups))
		e2e.set("qps", mean(closed.rates))
		e2e.set("p50_ms", percentile(primary, 50))
		e2e.set("recall_at_10", q.recall)
		e2e.set("overall_ratio", q.overallRatio)
		e2e.set("index_bytes_per_data_byte", float64(su.indexBytes)/float64(w.N*dim*4))
	}

	rungs := r.ladderOps()
	var clientInsertMs float64
	if cfg.trace {
		if err := r.ladderClient(ctx, rungs); err != nil {
			return nil, err
		}
		if w.InsertEvery > 0 {
			if clientInsertMs, err = r.ladderInserts(ctx); err != nil {
				return nil, err
			}
		}
	}
	end, err := r.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	// Every acknowledged insert must be live on the server.
	if want := r.model.liveCount(); end.Live != want {
		problem("server reports %d live points, the harness has %d (build set + acknowledged inserts)", end.Live, want)
	}
	peakRSS, err := srv.rssMB("VmHWM")
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		layers.set("promipsd.rss_peak_mb", peakRSS)
		layers.set("wal.journal_len_end", float64(end.JournalLen))
		layers.set("segments.freezes", float64(end.Updates.Freezes))
		layers.set("segments.flushes", float64(end.Updates.Flushes))
		layers.set("segments.flush_failures", float64(end.Updates.FlushFailures))
		// Below the wire: the drained server's Save leaves the directory
		// openable in-process.
		if err := srv.stop(); err != nil {
			return nil, err
		}
		loc, err := r.ladderLocal(ctx, idxDir, rungs)
		if err != nil {
			return nil, fmt.Errorf("in-process ladder: %w", err)
		}
		ladderMetrics(w, rungs, loc, layers)
		if w.Preload > 0 {
			layers.set("promips.memscan_ms", layers.vals["shard.search_ms"]-baseSearchMs)
			layers.set("promipsd.insert_self_ms", clientInsertMs-loc.insertMs)
		}
		spans.emit(rungs)
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), spans.file(w, seed, env)); err != nil {
			return nil, err
		}
		rec.Trace, rec.Metrics = 1, layers.out()
	} else {
		e2e.set("server_rss_mb", median(r.rssMB))
		rec.Metrics = e2e.out()
	}

	if n := total.byOutcome[wrong]; n > 0 {
		problem("%d wrong answers", n)
	}
	rec.Attempted, rec.Failed, rec.Pace = total.attempted, total.failed, median(r.paces)
	rec.Correct = len(rec.Problems) == 0 && len(rec.Saturated) == 0
	return rec, writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-seed%d-trace%d.json", w.Name, seed, rec.Trace)), rec)
}

func phaseDur(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
