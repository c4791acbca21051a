package main

import (
	"math"
	"math/rand"
	"time"

	"promips/dataset"
)

// Index and query parameters shared by every workload (the paper's
// default setting on its Netflix corpus).
const (
	dim    = 300
	topK   = 10
	ratioC = 0.9
	probP  = 0.5
	projM  = 6

	qualityQueries = 200 // size of the fixed recall / overall-ratio set
	hardPool       = 256 // out-of-sample queries drawn from Spec.Queries
	freshSpare     = 4096
)

// workload is one index + traffic mix. Rate is the open-loop arrival rate,
// frozen at 40-50% of the closed-loop capacity measured on the 2-core
// sandbox (see README.md); it is a constant so that latency is always read
// at the same offered load.
type workload struct {
	Name     string
	N        int // build-set size
	Shards   int
	PoolSize int // buffer-pool pages per file; 0 = promips default (1024)
	Preload  int // inserts acknowledged before warm-up
	// HardEvery > 0 makes every HardEvery-th operation an out-of-sample
	// query; InsertEvery > 0 makes every InsertEvery-th an insert;
	// Batch > 0 makes every operation one /v1/searchbatch of that size.
	HardEvery, InsertEvery, Batch int
	Rate                          float64
	Warmup                        int // untimed operations that fill the pool
	Ladder                        int // operations replayed through each seam on a traced run
}

var workloads = []workload{
	{Name: "warm-small", N: 17770, Shards: 1, PoolSize: 8192, Rate: 350, Warmup: 1000, Ladder: 300},
	{Name: "cold-large", N: 50000, Shards: 2, HardEvery: 10, Rate: 32, Warmup: 200, Ladder: 100},
	{Name: "mixed-updates", N: 17770, Shards: 2, PoolSize: 8192, Preload: 12288, InsertEvery: 10, Rate: 100, Warmup: 600, Ladder: 200},
	{Name: "batch", N: 17770, Shards: 1, PoolSize: 8192, Batch: 16, Rate: 25, Warmup: 80, Ladder: 40},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// primaryShare is the share of operations that are the primary one, the
// one whose latency p50_ms and tail_ms report: search, or batch.
func (w *workload) primaryShare() float64 {
	if w.InsertEvery > 0 {
		return 1 - 1/float64(w.InsertEvery)
	}
	return 1
}

// corpusSeed fixes the build set, the pool of vectors to insert, the pool
// of out-of-sample queries and the index's own projection seed: they are
// the benchmark's dataset, as the Netflix matrix is the paper's. A run's
// --seed draws the traffic from them: which vectors are queried, inserted
// and batched together, in which order, and when each request is due. Were
// the corpus drawn from --seed too, two seeds would differ by the 20% in
// speed and the 0.08 in recall that two Netflix-like corpora differ by,
// and no bound tighter than that could be held.
const corpusSeed = 20210419

// inputs is everything a run feeds the system.
type inputs struct {
	data  [][]float32 // the build set; a member query is one of these
	fresh [][]float32 // vectors to insert, same distribution as data, in this run's order
	hard  [][]float32 // out-of-sample queries (Spec.Queries)
}

// makeInputs draws the workload's vectors. Build set and fresh vectors
// come from ONE generator stream, because the Netflix generator derives
// its genre axes from its seed: a second stream would insert points from a
// different distribution.
func makeInputs(w *workload, seed int64) *inputs {
	spec := dataset.Netflix()
	in := &inputs{}
	extra := 0
	if w.InsertEvery > 0 {
		extra = w.Preload + freshSpare
	}
	all := spec.Generate(w.N+extra, corpusSeed)
	in.data, in.fresh = all[:w.N], all[w.N:]
	// The preload is the same set of vectors on every seed, in this seed's
	// order; so is what the timed phases then draw their inserts from.
	rng := rand.New(rand.NewSource(seed))
	for _, part := range [][][]float32{in.fresh[:min(w.Preload, len(in.fresh))], in.fresh[min(w.Preload, len(in.fresh)):]} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	if w.HardEvery > 0 {
		in.hard = spec.Queries(hardPool, corpusSeed)
	}
	return in
}

type opKind int

const (
	opSearch opKind = iota // member query (the paper's protocol)
	opHard                 // out-of-sample query
	opInsert
	opBatch
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"search", "search_hard", "insert", "batch"}[k]
}

// Phases of a run; each draws its operations from its own stream.
const (
	phaseWarmup uint64 = iota + 1
	phaseClosed
	phaseOpen
	phaseQuality
	phaseLadder
	batchMember // not a phase: the stream that picks a batch's members
)

// op is operation i of a phase: a pure function of (workload, seed, phase, i).
type op struct {
	kind opKind
	u    uint64 // selects the query vector(s)
}

func mix(seed int64, phase, i uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ phase*0xD6E8FEB86659FD93 ^ (i+1)*0xC2B2AE3D27D4EB4F
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// opAt returns operation i of a phase. "Every 10th" operations are spaced
// evenly from a seeded offset, so each run carries the same share of them.
func (w *workload) opAt(seed int64, phase uint64, i int) op {
	o := op{kind: opSearch, u: mix(seed, phase, uint64(i))}
	off := int(mix(seed, phase, math.MaxUint64-1) % 1000)
	switch {
	case w.Batch > 0:
		o.kind = opBatch
	case w.InsertEvery > 0 && phase != phaseQuality && phase != phaseLadder && (i+off)%w.InsertEvery == 0:
		o.kind = opInsert
	case w.HardEvery > 0 && (i+off)%w.HardEvery == 0:
		o.kind = opHard
	}
	return o
}

// query returns the vector of a single-search operation.
func (in *inputs) query(o op) []float32 {
	if o.kind == opHard {
		return in.hard[o.u%uint64(len(in.hard))]
	}
	return in.data[o.u%uint64(len(in.data))]
}

// batch returns the member queries of a batch operation.
func (in *inputs) batch(o op, size int) [][]float32 {
	vs := make([][]float32, size)
	for j := range vs {
		vs[j] = in.data[mix(int64(o.u), batchMember, uint64(j))%uint64(len(in.data))]
	}
	return vs
}

// schedule returns the due times of an open-loop phase, a pure function of
// seed: request i is due at a seeded moment of the i-th interval of 1/rate
// seconds. Requests do not wait for each other's replies, and the gaps
// between them vary from nothing to two intervals, but every run offers
// the same load over every stretch of the phase. (Poisson arrivals were
// tried first. At 40-50% of capacity about half of them wait behind
// another request, so the median latency sat on the edge between requests
// that waited and requests that did not, and moved with the bursts a
// seed happened to draw: 13-19% between the quartiles of ten seeds where
// the same seed repeated within 6-7%, and 4-11% on this schedule.)
func schedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(int64(mix(seed, phaseOpen, math.MaxUint64-2))))
	var due []time.Duration
	for i := 0; ; i++ {
		t := (float64(i) + r.Float64()) / rate
		if t >= dur.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}
