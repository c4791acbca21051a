package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"promips"
	"promips/client"
	"promips/shard"
)

// span is one timed call into a layer. Spans of one operation share Query;
// Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the run began. Layer names the module the span's SELF
// time (its duration minus what its children cover) is charged to.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Query   int                `json:"query"`
	Layer   string             `json:"layer"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// add stores s under a fresh id and returns the id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes splits the wall time of the root spans named rootName among the
// layers: every instant of a root is charged to the deepest span covering
// it, so a span's self time is its duration minus what its children cover,
// and children that ran in parallel cover their union once. The shares
// therefore add up to rootNs. clippedNs is child time that fell outside its
// parent's interval; it is not charged, and a large value means the
// replayed seams do not nest the way the live request does.
func selfTimes(spans []span, rootName string) (self map[string]int64, rootNs, clippedNs int64) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]int64)
	var charge func(s span, lo, hi int64)
	charge = func(s span, lo, hi int64) {
		kids := children[s.ID]
		sort.SliceStable(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, at := int64(0), lo
		for _, k := range kids {
			klo, khi := max(k.StartNs, at), min(k.EndNs, hi)
			if k.EndNs > hi {
				clippedNs += k.EndNs - max(k.StartNs, hi)
			}
			if khi > klo {
				charge(k, klo, khi)
				covered += khi - klo
				at = khi
			}
		}
		self[s.Layer] += hi - lo - covered
	}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == rootName {
			rootNs += s.EndNs - s.StartNs
			charge(s, s.StartNs, s.EndNs)
		}
	}
	return self, rootNs, clippedNs
}

// rung is one ladder operation measured at every seam: through the client
// against the live server, then in-process on the sharded index, then on
// each child index alone.
type rung struct {
	op                  op
	start               time.Time
	e2e, codec          time.Duration
	reqBytes, respBytes int
	shard               time.Duration
	child               []time.Duration
	stats               promips.SearchStats // summed over children and query vectors
	termA, vectors      int
}

// slowestChild is the child time a fanned-out query waits for.
func (g *rung) slowestChild() time.Duration {
	var m time.Duration
	for _, d := range g.child {
		m = max(m, d)
	}
	return m
}

func (r *runner) ladderOps() []rung {
	rungs := make([]rung, r.w.Ladder)
	for i := range rungs {
		rungs[i].op = r.w.opAt(corpusSeed, phaseLadder, i) // the same sequence on every seed
	}
	return rungs
}

// ladderClient replays the ladder serially with one client against the
// live server, then times this side's share of the JSON codec on the very
// bytes that travelled.
func (r *runner) ladderClient(ctx context.Context, rungs []rung) error {
	pre := r.cal.pace()
	defer func() {
		pace := (pre + r.cal.pace()) / 2
		for i := range rungs {
			rungs[i].e2e, rungs[i].codec = atPace(rungs[i].e2e, pace), atPace(rungs[i].codec, pace)
		}
	}()
	for i := range rungs {
		g := &rungs[i]
		var req, resp any
		g.start = time.Now()
		if g.op.kind == opBatch {
			vs := r.in.batch(g.op, r.w.Batch)
			breq := client.BatchRequest{Vectors: vs, K: topK}
			bresp, err := r.cl.SearchBatch(ctx, breq)
			g.e2e = time.Since(g.start)
			if err != nil {
				return fmt.Errorf("ladder batch %d: %w", i, err)
			}
			req, resp = breq, bresp
		} else {
			sreq := client.SearchRequest{Vector: r.in.query(g.op), K: topK}
			sresp, err := r.cl.Search(ctx, sreq)
			g.e2e = time.Since(g.start)
			if err != nil {
				return fmt.Errorf("ladder search %d: %w", i, err)
			}
			req, resp = sreq, sresp
		}
		respBytes, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		t0 := time.Now()
		reqBytes, err := json.Marshal(req)
		if err != nil {
			return err
		}
		if g.op.kind == opBatch {
			err = json.Unmarshal(respBytes, new(client.BatchResponse))
		} else {
			err = json.Unmarshal(respBytes, new(client.SearchResponse))
		}
		g.codec = time.Since(t0)
		if err != nil {
			return err
		}
		g.reqBytes, g.respBytes = len(reqBytes), len(respBytes)
	}
	return nil
}

// searcher is what the in-process rungs call: a sharded index or one child.
type searcher interface {
	Search(ctx context.Context, q []float32, k int, opts ...promips.SearchOption) ([]promips.Result, promips.SearchStats, error)
	SearchBatch(ctx context.Context, queries [][]float32, k int, opts ...promips.SearchOption) ([][]promips.Result, []promips.SearchStats, error)
}

// runLocal performs one ladder operation in-process and returns its wall
// time and per-vector stats.
func (r *runner) runLocal(ctx context.Context, ix searcher, o op, opts ...promips.SearchOption) (time.Duration, []promips.SearchStats, error) {
	if o.kind == opBatch {
		vs := r.in.batch(o, r.w.Batch)
		t0 := time.Now()
		_, sts, err := ix.SearchBatch(ctx, vs, topK, opts...)
		return time.Since(t0), sts, err
	}
	q := r.in.query(o)
	t0 := time.Now()
	_, st, err := ix.Search(ctx, q, topK, opts...)
	return time.Since(t0), []promips.SearchStats{st}, err
}

// atPace is a measured duration at the reference machine's pace.
func atPace(d time.Duration, pace float64) time.Duration {
	return time.Duration(float64(d) * pace)
}

// localPass replays the ladder on ix twice, an untimed pass that fills the
// freshly opened index's pool and a timed one, and hands each timed result
// to keep, its time at the reference machine's pace like every other time
// of the ladder: the seams are replayed seconds apart, and are compared.
func (r *runner) localPass(ctx context.Context, ix searcher, rungs []rung, keep func(g *rung, d time.Duration, sts []promips.SearchStats), opts ...promips.SearchOption) error {
	for i := range rungs {
		if _, _, err := r.runLocal(ctx, ix, rungs[i].op, opts...); err != nil {
			return err
		}
	}
	took, stats := make([]time.Duration, len(rungs)), make([][]promips.SearchStats, len(rungs))
	pre := r.cal.pace()
	for i := range rungs {
		var err error
		if took[i], stats[i], err = r.runLocal(ctx, ix, rungs[i].op, opts...); err != nil {
			return err
		}
	}
	pace := (pre + r.cal.pace()) / 2
	for i := range rungs {
		keep(&rungs[i], atPace(took[i], pace), stats[i])
	}
	return nil
}

// localSearchMs is the median in-process time of the ladder on ix.
func (r *runner) localSearchMs(ctx context.Context, ix searcher, rungs []rung) (float64, error) {
	var all []float64
	err := r.localPass(ctx, ix, rungs, func(_ *rung, d time.Duration, _ []promips.SearchStats) { all = append(all, ms(d)) })
	return median(all), err
}

// localLadder is what the in-process seams add to the rungs.
type localLadder struct {
	uncompacted                     int
	exactMs, exactNsPerVector       float64
	batchSpeedup                    float64
	insertMs, compactS, afterCompMs float64
}

const (
	exactRungs   = 50  // ladder operations also answered by Index.Exact
	ladderInsert = 100 // inserts replayed through client and in-process
	speedupBatch = 16
)

// ladderLocal replays the ladder below the wire, on the directory the
// stopped server saved: shard.Index, then every child promips.Index at the
// per-shard probability the fan-out gives it, then (mixed-updates) the
// write path and a compaction.
func (r *runner) ladderLocal(ctx context.Context, dir string, rungs []rung) (localLadder, error) {
	var out localLadder
	six, err := shard.Open(dir)
	if err != nil {
		return out, err
	}
	us := six.UpdateStats()
	out.uncompacted = us.DeltaEntries + us.SegmentEntries
	k := six.Shards()
	err = r.localPass(ctx, six, rungs, func(g *rung, d time.Duration, _ []promips.SearchStats) { g.shard = d })
	if cerr := six.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}

	childP := promips.WithP(1 - (1-probP)/float64(k))
	var exactNs []float64
	var exactPoints int
	for s := 0; s < k; s++ {
		cix, err := promips.Open(filepath.Join(dir, fmt.Sprintf("shard-%03d", s)))
		if err != nil {
			return out, err
		}
		err = r.localPass(ctx, cix, rungs, func(g *rung, d time.Duration, sts []promips.SearchStats) {
			g.child = append(g.child, d)
			if s == 0 {
				g.vectors = len(sts)
			}
			for _, st := range sts {
				g.stats.Candidates += st.Candidates
				g.stats.PageAccesses += st.PageAccesses
				g.stats.Preranked += st.Preranked
				g.stats.NormPruned += st.NormPruned
				g.stats.GroupsProbed += st.GroupsProbed
				if st.TerminatedBy == "A" {
					g.termA++
				}
			}
		}, childP)
		if err == nil {
			exactPoints += cix.LiveCount()
			for i := 0; i < min(exactRungs, len(rungs)) && err == nil; i++ {
				q := r.firstVector(rungs[i].op)
				t0 := time.Now()
				_, err = cix.Exact(ctx, q, topK)
				if s == 0 {
					exactNs = append(exactNs, 0)
				}
				exactNs[i] += float64(time.Since(t0))
			}
		}
		if err == nil && s == 0 {
			out.batchSpeedup, err = r.batchSpeedup(ctx, cix, rungs, childP)
		}
		if cerr := cix.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return out, err
		}
	}
	out.exactMs = median(exactNs) / 1e6
	out.exactNsPerVector = median(exactNs) / float64(exactPoints)

	if r.w.InsertEvery == 0 {
		return out, nil
	}
	six, err = shard.Open(dir)
	if err != nil {
		return out, err
	}
	defer six.Close()
	var ins []float64
	for i := 0; i < ladderInsert; i++ {
		j := int(r.nextFresh.Add(1)) - 1
		if j >= len(r.in.fresh) {
			break
		}
		t0 := time.Now()
		if _, err := six.Insert(r.in.fresh[j]); err != nil {
			return out, err
		}
		ins = append(ins, ms(time.Since(t0)))
	}
	out.insertMs = median(ins)
	t0 := time.Now()
	if _, err := six.Compact(ctx); err != nil {
		return out, err
	}
	out.compactS = time.Since(t0).Seconds()
	out.afterCompMs, err = r.localSearchMs(ctx, six, rungs)
	return out, err
}

func (r *runner) firstVector(o op) []float32 {
	if o.kind == opBatch {
		return r.in.batch(o, 1)[0]
	}
	return r.in.query(o)
}

// batchSpeedup is sum(single Search) / SearchBatch over the same queries on
// one child index, the median of five rounds.
func (r *runner) batchSpeedup(ctx context.Context, cix *promips.Index, rungs []rung, opt promips.SearchOption) (float64, error) {
	var qs [][]float32
	if rungs[0].op.kind == opBatch {
		qs = r.in.batch(rungs[0].op, speedupBatch)
	} else {
		for i := 0; i < min(speedupBatch, len(rungs)); i++ {
			qs = append(qs, r.in.query(rungs[i].op))
		}
	}
	var ratios []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for _, q := range qs {
			if _, _, err := cix.Search(ctx, q, topK, opt); err != nil {
				return 0, err
			}
		}
		single := time.Since(t0)
		t0 = time.Now()
		if _, _, err := cix.SearchBatch(ctx, qs, topK, opt); err != nil {
			return 0, err
		}
		ratios = append(ratios, float64(single)/float64(time.Since(t0)))
	}
	return median(ratios), nil
}

// ladderInserts replays the insert rungs through the client against the
// live server and returns the median acknowledgement time.
func (r *runner) ladderInserts(ctx context.Context) (float64, error) {
	var all []float64
	for i := 0; i < ladderInsert; i++ {
		t0 := time.Now()
		if _, out, _ := r.do(ctx, op{kind: opInsert}); out != ok {
			return 0, fmt.Errorf("ladder insert %d failed (outcome %d)", i, out)
		}
		all = append(all, ms(time.Since(t0)))
	}
	return median(all), nil
}

// emit turns the measured rungs into spans. The seams were replayed one
// after another, so the child spans are laid inside their parent's
// interval in the order the request meets them: codec first, then the
// sharded search, whose children start together because they run in
// parallel. Reading self times off the file then needs no special case.
func (t *tracer) emit(rungs []rung) {
	for i := range rungs {
		g := &rungs[i]
		name := "client.Search"
		if g.op.kind == opBatch {
			name = "client.SearchBatch"
		}
		start := t.since(g.start)
		root := t.add(span{Query: i, Layer: "promipsd", Name: name, StartNs: start, EndNs: start + int64(g.e2e),
			Counts: map[string]float64{"req_bytes": float64(g.reqBytes), "resp_bytes": float64(g.respBytes), "hard": b2f(g.op.kind == opHard)}})
		t.add(span{Parent: root, Query: i, Layer: "client", Name: "json codec", StartNs: start, EndNs: start + int64(g.codec)})
		sStart := start + int64(g.codec)
		sh := t.add(span{Parent: root, Query: i, Layer: "shard", Name: "shard.Index." + name[len("client."):], StartNs: sStart, EndNs: sStart + int64(g.shard)})
		for s, d := range g.child {
			counts := map[string]float64{"shard": float64(s)}
			if s == 0 {
				// Work counts are summed over the children; they hang on the first.
				counts["candidates"] = float64(g.stats.Candidates)
				counts["pages"] = float64(g.stats.PageAccesses)
				counts["preranked"] = float64(g.stats.Preranked)
				counts["norm_pruned"] = float64(g.stats.NormPruned)
				counts["groups_probed"] = float64(g.stats.GroupsProbed)
			}
			t.add(span{Parent: sh, Query: i, Layer: "promips", Name: "promips.Index." + name[len("client."):], StartNs: sStart, EndNs: sStart + int64(d), Counts: counts})
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ladderMetrics derives the per-layer numbers from the rungs.
func ladderMetrics(w *workload, rungs []rung, loc localLadder, m *metricSet) {
	var codec, self, shardMs, fanout, strag, core, easy, hard []float64
	var req, resp, vectors, termA float64
	var st promips.SearchStats
	for i := range rungs {
		g := &rungs[i]
		slow := g.slowestChild()
		codec = append(codec, float64(g.codec)/1e3)
		self = append(self, ms(g.e2e-g.codec-g.shard))
		shardMs = append(shardMs, ms(g.shard))
		core = append(core, ms(slow))
		if g.op.kind == opHard {
			hard = append(hard, ms(slow))
		} else {
			easy = append(easy, ms(slow))
		}
		if len(g.child) > 1 {
			var sum time.Duration
			for _, d := range g.child {
				sum += d
			}
			fanout = append(fanout, ms(g.shard-slow))
			strag = append(strag, float64(slow)*float64(len(g.child))/float64(sum))
		}
		req += float64(g.reqBytes)
		resp += float64(g.respBytes)
		vectors += float64(g.vectors)
		termA += float64(g.termA)
		st.Candidates += g.stats.Candidates
		st.PageAccesses += g.stats.PageAccesses
		st.Preranked += g.stats.Preranked
		st.NormPruned += g.stats.NormPruned
		st.GroupsProbed += g.stats.GroupsProbed
	}
	n := float64(len(rungs))
	if w.Batch > 0 {
		m.set("client.codec_batch_us", median(codec))
		m.set("promipsd.batch_self_ms", median(self))
	} else {
		m.set("client.codec_search_us", median(codec))
		m.set("promipsd.search_self_ms", median(self))
	}
	m.set("client.req_bytes", req/n)
	m.set("client.resp_bytes", resp/n)
	m.set("shard.search_ms", median(shardMs))
	m.set("shard.straggler_ratio", 1)
	if len(strag) > 0 {
		m.set("shard.fanout_self_ms", median(fanout))
		m.set("shard.straggler_ratio", median(strag))
	}
	m.set("promips.search_ms", median(core))
	m.set("promips.search_easy_ms", median(easy))
	m.set("promips.search_hard_ms", median(hard))
	m.set("promips.batch_speedup", loc.batchSpeedup)
	m.set("promips.exact_ms", loc.exactMs)
	m.set("promips.exact_ns_per_vector", loc.exactNsPerVector)
	// Work per query vector, summed over the shards it fans out to.
	m.set("promips.candidates", float64(st.Candidates)/vectors)
	m.set("promips.pages", float64(st.PageAccesses)/vectors)
	m.set("promips.preranked", float64(st.Preranked)/vectors)
	m.set("promips.norm_pruned", float64(st.NormPruned)/vectors)
	m.set("promips.groups_probed", float64(st.GroupsProbed)/vectors)
	m.set("promips.terminated_A_ratio", termA/(vectors*float64(w.Shards)))
	m.set("promips.verify_yield", topK*vectors/float64(st.Candidates))
	m.set("promips.uncompacted_entries", float64(loc.uncompacted))
	m.set("promips.search_after_compact_ms", loc.afterCompMs)
	m.set("wal.insert_ms", loc.insertMs)
	m.set("compactor.compact_s", loc.compactS)
}

// traceFile is what a traced run writes under -out.
type traceFile struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Env       environment        `json:"env"`
	RootMs    float64            `json:"root_ms"`    // total serial client wall time of the ladder
	SelfMs    map[string]float64 `json:"self_ms"`    // the same time, split by layer
	ClippedMs float64            `json:"clipped_ms"` // replayed child time that did not fit inside its parent
	Spans     []span             `json:"spans"`
}

func (t *tracer) file(w *workload, seed int64, env environment) traceFile {
	rootName := "client.Search"
	if w.Batch > 0 {
		rootName = "client.SearchBatch"
	}
	self, rootNs, clippedNs := selfTimes(t.spans, rootName)
	f := traceFile{Workload: w.Name, Seed: seed, Env: env, RootMs: float64(rootNs) / 1e6, ClippedMs: float64(clippedNs) / 1e6, SelfMs: make(map[string]float64), Spans: t.spans}
	for layer, ns := range self {
		f.SelfMs[layer] = float64(ns) / 1e6
	}
	return f
}
