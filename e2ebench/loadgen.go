package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"promips"
	"promips/client"
)

// outcome classifies one attempted operation. Everything but ok is a
// failure: it counts against attempted and contributes no latency sample.
type outcome int

const (
	ok        outcome = iota
	refused           // 429: admission queue full
	deadline          // 504 or a client-side deadline
	serverErr         // any other non-2xx answer
	transport         // the request never got an HTTP answer
	wrong             // answered 200 with a wrong result
	numOutcomes
)

func classify(err error) outcome {
	var ae *client.APIError
	switch {
	case err == nil:
		return ok
	case errors.As(err, &ae):
		switch {
		case ae.Status == http.StatusTooManyRequests:
			return refused
		case ae.Code == client.CodeDeadline:
			return deadline
		}
		return serverErr
	case errors.Is(err, context.DeadlineExceeded):
		return deadline
	}
	return transport
}

// sample is one successful operation of a timed phase.
type sample struct {
	kind    opKind
	ms      float64 // latency
	vectors int     // query vectors answered (a batch counts its size)
}

// tally accounts a phase's operations.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	byOutcome [numOutcomes]int
	samples   []sample // successful operations only
	elapsed   time.Duration
}

func (t *tally) record(kind opKind, ms float64, out outcome, vectors int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.byOutcome[out]++
	if out != ok {
		t.failed++
		return
	}
	t.samples = append(t.samples, sample{kind, ms, vectors})
}

// merge adds a phase's counts (not its samples) to a total.
func (t *tally) merge(p *tally) {
	t.attempted += p.attempted
	t.failed += p.failed
	for i, n := range p.byOutcome {
		t.byOutcome[i] += n
	}
}

// isPrimary reports whether kind is the operation whose latency the
// workload reports: a search, easy or hard (one population to a user), or
// a batch.
func (w *workload) isPrimary(kind opKind) bool {
	if w.Batch > 0 {
		return kind == opBatch
	}
	return kind == opSearch || kind == opHard
}

// latencies returns the latency of every sample keep accepts.
func latencies(samples []sample, keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s.kind) {
			out = append(out, s.ms)
		}
	}
	return out
}

// work is what a successful operation counts for in throughput: one, or
// for a batch its query vectors, so that batch throughput reads in the same
// unit as single search.
func (w *workload) work(vectors int) int {
	if w.Batch > 0 {
		return vectors
	}
	return 1
}

// model is the harness's own record of the live vectors: the build set
// plus every acknowledged insert. Answers are checked against it.
type model struct {
	base [][]float32

	mu      sync.RWMutex
	added   map[uint32][]float32
	pending []pendingCheck
}

// pendingCheck is a returned point whose id the model did not know yet: a
// search can see an insert before this process has recorded its ack.
type pendingCheck struct {
	id uint32
	q  []float32
	ip float64
}

func newModel(base [][]float32) *model {
	return &model{base: base, added: make(map[uint32][]float32)}
}

func (m *model) vector(id uint32) ([]float32, bool) {
	if int(id) < len(m.base) {
		return m.base[id], true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.added[id]
	return v, ok
}

// ack records an acknowledged insert; a duplicate id is a server bug.
func (m *model) ack(id uint32, v []float32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.added[id]; dup || int(id) < len(m.base) {
		return false
	}
	m.added[id] = v
	return true
}

func (m *model) liveCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.base) + len(m.added)
}

// live returns every live vector with its id.
func (m *model) live() ([]uint32, [][]float32) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]uint32, 0, len(m.base)+len(m.added))
	vs := make([][]float32, 0, cap(ids))
	for i, v := range m.base {
		ids, vs = append(ids, uint32(i)), append(vs, v)
	}
	for id, v := range m.added {
		ids, vs = append(ids, id), append(vs, v)
	}
	return ids, vs
}

// settle re-checks the deferred points once every ack of the phase is in,
// and returns how many are wrong.
func (m *model) settle() int {
	m.mu.Lock()
	pend := m.pending
	m.pending = nil
	m.mu.Unlock()
	bad := 0
	for _, p := range pend {
		if v, ok := m.vector(p.id); !ok || !sameIP(p.ip, dot(v, p.q)) {
			bad++
		}
	}
	return bad
}

func dot(a, b []float32) float64 {
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for i := n; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// sameIP accepts a returned inner product within 1e-4 relative of the
// harness's own.
func sameIP(got, want float64) bool {
	return math.Abs(got-want) <= 1e-4*math.Max(math.Abs(want), 1e-9)
}

// checkResults verifies one answer: k results, best first, each inner
// product equal to the harness's own dot product of that id.
func (m *model) checkResults(res []promips.Result, q []float32) bool {
	if len(res) != topK {
		return false
	}
	for i, r := range res {
		if i > 0 && r.IP > res[i-1].IP {
			return false
		}
		v, known := m.vector(r.ID)
		if !known {
			m.mu.Lock()
			m.pending = append(m.pending, pendingCheck{r.ID, q, r.IP})
			m.mu.Unlock()
			continue
		}
		if !sameIP(r.IP, dot(v, q)) {
			return false
		}
	}
	return true
}

// runner drives one workload's operations through promips/client.
type runner struct {
	w     *workload
	seed  int64
	in    *inputs
	cl    *client.Client
	model *model
	cal   *calibrator
	srv   *server

	// Collected between the slices of the timed phases.
	paces []float64 // the machine's pace
	rssMB []float64 // promipsd's resident set

	nextFresh atomic.Int64 // next unused insert vector
}

// newClient returns a client that never retries (a refusal must be
// counted, not hidden) over a transport that keeps one connection per
// in-flight request instead of the default two.
func newClient(base string) *client.Client {
	tr := &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 1024, IdleConnTimeout: time.Minute}
	return client.New(base, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
}

// do performs one operation and checks its answer. It returns the kind it
// actually ran, the outcome and the query vectors answered.
func (r *runner) do(ctx context.Context, o op) (opKind, outcome, int) {
	switch o.kind {
	case opInsert:
		j := int(r.nextFresh.Add(1)) - 1
		if j >= len(r.in.fresh) {
			// Out of fresh vectors (never at the frozen rates): read instead.
			return r.do(ctx, op{kind: opSearch, u: o.u})
		}
		id, err := r.cl.Insert(ctx, r.in.fresh[j])
		if err != nil {
			return opInsert, classify(err), 0
		}
		if !r.model.ack(id, r.in.fresh[j]) {
			return opInsert, wrong, 0
		}
		return opInsert, ok, 0
	case opBatch:
		vs := r.in.batch(o, r.w.Batch)
		resp, err := r.cl.SearchBatch(ctx, client.BatchRequest{Vectors: vs, K: topK})
		if err != nil {
			return opBatch, classify(err), 0
		}
		if len(resp.Results) != len(vs) {
			return opBatch, wrong, 0
		}
		for i, res := range resp.Results {
			if !r.model.checkResults(res, vs[i]) {
				return opBatch, wrong, 0
			}
		}
		return opBatch, ok, len(vs)
	default:
		q := r.in.query(o)
		resp, err := r.cl.Search(ctx, client.SearchRequest{Vector: q, K: topK})
		if err != nil {
			return o.kind, classify(err), 0
		}
		if !r.model.checkResults(resp.Results, q) {
			return o.kind, wrong, 0
		}
		return o.kind, ok, 1
	}
}

// closedLoop sends count operations from `clients` callers that each wait
// for their reply before sending the next, opAt(i) being the i-th sent. It
// is the untimed phases: preload and warm-up.
func (r *runner) closedLoop(ctx context.Context, clients, count int, opAt func(i int) op) *tally {
	t := &tally{}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				kind, out, vectors := r.do(ctx, opAt(i))
				t.record(kind, 0, out, vectors)
			}
		}()
	}
	wg.Wait()
	t.elapsed = time.Since(start)
	r.settle(t)
	return t
}

// settle charges deferred checks that turned out wrong to the phase.
func (r *runner) settle(t *tally) {
	if bad := r.model.settle(); bad > 0 {
		t.failed += bad
		t.byOutcome[wrong] += bad
	}
}

// sliceLen is about how long a timed phase runs between two calibrations:
// short beside the seconds over which the machine's speed drifts, long
// beside a calibration and beside one operation.
const sliceLen = 800 * time.Millisecond

// eachSlice cuts a timed phase of dur into equal slices of about sliceLen
// and calls run for each, with its number, its length and the machine's
// pace just before it. What run returns is called with the slice's pace,
// the mean of the paces before and after it, once every answer is in. The
// server's memory is sampled between slices too.
func (r *runner) eachSlice(ctx context.Context, dur time.Duration, run func(s int, each time.Duration, pre float64) func(pace float64)) {
	n := max(1, int(math.Round(float64(dur)/float64(sliceLen))))
	pre := r.cal.pace()
	for s := 0; s < n && ctx.Err() == nil; s++ {
		finish := run(s, dur/time.Duration(n), pre)
		post := r.cal.pace()
		finish((pre + post) / 2)
		r.paces = append(r.paces, (pre+post)/2)
		if mb, err := r.srv.rssMB("VmRSS"); err == nil {
			r.rssMB = append(r.rssMB, mb)
		}
		pre = post
	}
}

// closedResult is a closed-loop phase: the tally, and per slice the work
// done per second at the reference machine's pace.
type closedResult struct {
	*tally
	rates []float64
}

// closedPhase is the timed closed loop: `clients` callers, each waiting for
// its reply, for dur. A caller's rate over a slice is its work over the
// time to its last reply, so the moment at a slice's end when one caller
// has stopped and the other has not is charged to neither.
func (r *runner) closedPhase(ctx context.Context, clients int, dur time.Duration, opAt func(i int) op) *closedResult {
	res := &closedResult{tally: &tally{}}
	var next atomic.Int64
	r.eachSlice(ctx, dur, func(_ int, each time.Duration, _ float64) func(float64) {
		perClient := make([]float64, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work, last := 0, start
				for ctx.Err() == nil && time.Since(start) < each {
					t0 := time.Now()
					kind, out, vectors := r.do(ctx, opAt(int(next.Add(1))-1))
					last = time.Now()
					res.record(kind, ms(last.Sub(t0)), out, vectors)
					if out == ok {
						work += r.w.work(vectors)
					}
				}
				if work > 0 {
					perClient[c] = float64(work) / last.Sub(start).Seconds()
				}
			}()
		}
		wg.Wait()
		return func(pace float64) {
			rate := 0.0
			for _, x := range perClient {
				rate += x
			}
			res.rates = append(res.rates, rate/pace)
		}
	})
	r.settle(res.tally)
	return res
}

// openResult is an open-loop phase: the tally, with latencies at the
// reference machine's pace, plus how well the generator itself kept to the
// schedule.
type openResult struct {
	*tally
	lateMs    []float64 // send time - due time, per request
	inflight  []int     // requests in flight at each send, the new one included
	sliceTail []bool    // whether that send fell in the last third of its slice
}

// openPhase sends operation i when due[i] comes, whether or not earlier
// ones have been answered, and times each from its due time, so that a
// stall is charged to every request it delays. Between slices it waits for
// the answers still out. Within a slice the schedule, too, runs at the
// machine's pace: at a pace of 0.8 a second of schedule takes 1.25 s, so
// that the offered load stays the same share of what the machine can do,
// and a latency multiplied by 0.8 is what the reference machine would have
// shown at the frozen rate. spans, when not nil, receives one span per
// request (the traced run).
func (r *runner) openPhase(ctx context.Context, due []time.Duration, dur time.Duration, spans *tracer) *openResult {
	res := &openResult{tally: &tally{}}
	// sleepUntil wants the dispatcher on a thread of its own.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	next := 0
	r.eachSlice(ctx, dur, func(s int, each time.Duration, pre float64) func(float64) {
		in := &tally{}
		var cur atomic.Int64
		var wg sync.WaitGroup
		begin, end := time.Duration(s)*each, time.Duration(s+1)*each
		start := time.Now()
		for ; next < len(due) && due[next] < end; next++ {
			i, d := next, due[next]-begin
			dueAt := start.Add(time.Duration(float64(d) / pre))
			if sleepUntil(ctx, dueAt) != nil {
				break
			}
			res.lateMs = append(res.lateMs, ms(time.Since(dueAt)))
			res.inflight = append(res.inflight, int(cur.Add(1)))
			res.sliceTail = append(res.sliceTail, d >= each*2/3)
			wg.Add(1)
			go func() {
				defer wg.Done()
				kind, out, vectors := r.do(ctx, r.w.opAt(r.seed, phaseOpen, i))
				done := time.Now()
				cur.Add(-1)
				in.record(kind, ms(done.Sub(dueAt)), out, vectors)
				if spans != nil {
					spans.add(span{Query: i, Layer: "loadgen", Name: "open." + kind.String(), StartNs: spans.since(dueAt), EndNs: spans.since(done)})
				}
			}()
		}
		wg.Wait()
		return func(pace float64) {
			for _, x := range in.samples {
				x.ms *= pace
				res.samples = append(res.samples, x)
			}
			res.merge(in)
		}
	})
	r.settle(res.tally)
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// runtime's own timers are woken through epoll_wait, whose millisecond
// timeout would make every send up to a millisecond late; a high-resolution
// sleep on a locked thread is late only by the kernel's wake-up latency.
func sleepUntil(ctx context.Context, t time.Time) error {
	for ctx.Err() == nil {
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		// Short naps keep a cancelled run from sleeping through a long gap.
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		syscall.Nanosleep(&ts, nil)
	}
	return ctx.Err()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Limits of the load generator's self-check.
const (
	// The dispatcher sleeps until each send is due. A thread that wakes
	// while promipsd has every core waits for the kernel's next tick, 4 ms
	// on the sandbox, and the virtual machine itself stalls for tens of
	// milliseconds now and then: in a healthy run one send in a hundred is
	// 2-8 ms late, and once in a hundred runs 20 ms. One send in ten late
	// is a generator that is not keeping up, whatever the machine does.
	maxLateP90Ms = 5.0
	maxCPUShare  = 0.35
)

// saturation returns the reasons why an open-loop phase did not measure
// promipsd at the stated rate: the generator sent late, requests were
// piling up by the end of a slice, or the harness used too much of the
// machine. No reason means the latencies are valid.
func saturation(open *openResult, cpuShare float64) []string {
	var why []string
	if percentile(sortedCopy(open.lateMs), 90) > maxLateP90Ms {
		why = append(why, "generator late: send-due p90 above 5 ms")
	}
	// A stable queue has the same occupancy in every third of a slice
	// (each starts empty, so the first is the lightest if any); one that
	// cannot keep up climbs until the slice's last send.
	var head, tail, heads, tails float64
	for i, n := range open.inflight {
		if open.sliceTail[i] {
			tail, tails = tail+float64(n), tails+1
		} else {
			head, heads = head+float64(n), heads+1
		}
	}
	if heads+tails >= 30 && heads > 0 && tails > 0 && tail/tails > 1.5*head/heads+2 {
		why = append(why, "backlog growing: in-flight requests still rising over the last third of a slice")
	}
	if cpuShare > maxCPUShare {
		why = append(why, "harness CPU share above 0.35")
	}
	return why
}
