package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"promips"
	"promips/client"
	"promips/shard"
)

// index is the serving surface promipsd needs, satisfied by the primary
// *shard.Index and the read-only *shard.Follower (whose mutators return
// ErrReadOnlyReplica — surfaced as 403/CodeReadOnly). Both get the read
// and reporting half from the one struct they embed, so the handlers are
// role-agnostic; the code asks "is this a *shard.Follower" only where the
// role itself is the question (promotion, readiness, replication stats).
type index interface {
	Search(ctx context.Context, q []float32, k int, opts ...promips.SearchOption) ([]promips.Result, promips.SearchStats, error)
	SearchBatch(ctx context.Context, queries [][]float32, k int, opts ...promips.SearchOption) ([][]promips.Result, []promips.SearchStats, error)
	Insert(v []float32) (uint32, error)
	DeleteChecked(id uint32) (bool, error)
	Save() error
	Close() error
	Len() int
	LiveCount() int
	Dim() int
	M() int
	Shards() int
	Epoch() int64
	JournalLen() int
	JournalLens() []int
	JournalPoisoned() bool
	CacheStats() promips.CacheStats
	Recovery() promips.RecoveryStats
	UpdateStats() promips.UpdateStats
}

// serverConfig sizes the server's admission control and deadlines.
type serverConfig struct {
	// requestTimeout is the default AND maximum per-request deadline;
	// a request's timeout_ms can only shorten it.
	requestTimeout time.Duration
	// searchSlots / updateSlots bound how many searches (Search,
	// SearchBatch) and updates (Insert, Delete, Save) may be in flight;
	// requests beyond the bound are rejected with 429 rather than queued
	// without limit, so a burst degrades loudly instead of accumulating
	// latency. Zero slots reject everything (useful in tests).
	searchSlots, updateSlots int
	// leaseDur enables lease-fenced writes when a primary serves
	// replication: every follower pull re-arms a leaseDur fence, and a
	// primary whose fence lapses refuses writes (503/lease_expired) until
	// a follower pulls again. 0 disables expiry; deposition by a higher
	// failover epoch is enforced regardless.
	leaseDur time.Duration
	// autoCompactMin, when > 0, runs a background compaction scheduler on
	// any writable primary this server serves (including one it promotes
	// mid-run): frozen update segments are folded into the base index
	// once at least autoCompactMin of them accumulate. 0 disables it.
	// Followers never auto-compact — their state must stay a replayable
	// function of the primary's WAL.
	autoCompactMin int
}

// server wires an index behind promipsd's HTTP/JSON endpoints. The served
// index is swappable: /v1/promote replaces a follower with the promoted
// primary in place, without restarting the listener.
type server struct {
	ixMu sync.RWMutex
	ix   index

	cfg serverConfig
	mux *http.ServeMux

	searchGate gate
	updateGate gate
	idem       *idemCache

	// stopPoll (set by main in -follow mode) cancels the replication poll
	// loop; promote calls it before consuming the follower. promoted tells
	// main's shutdown path that the served index is now a primary and must
	// be Saved on exit like any other.
	stopPoll  func()
	promoteMu sync.Mutex
	promoted  atomic.Bool

	// lease fences the write path of a primary (nil while a follower is
	// served). pollFails mirrors the supervisor's consecutive poll failure
	// count into /v1/stats. replOn guards the one-shot /v1/repl/ mux
	// registration (a promoted follower mounts it mid-run).
	lease     atomic.Pointer[leaseGuard]
	pollFails atomic.Int64
	replOn    atomic.Bool

	// compactor is the background compaction scheduler (nil unless
	// -auto-compact > 0 and a writable primary is being served). Started
	// by servePrimary; main's drain path must Stop it before Save (a Save
	// concurrent with a compaction handover is safe but wasteful — the
	// fold would be redone against the new generation).
	compactor atomic.Pointer[promips.AutoCompactor]

	// quarantined is set by the auto-failover supervisor while it waits
	// out the suspect primary's lease. During quarantine /v1/readyz and
	// /v1/stats must not issue remote Lag reads: the primary is probably
	// dead (each read would hang a probe for the full request timeout) —
	// and if it is slow-but-alive, even metadata pulls against it are
	// pulls the quarantine promised not to make.
	quarantined atomic.Bool
}

// cur returns the currently served index.
func (s *server) cur() index {
	s.ixMu.RLock()
	defer s.ixMu.RUnlock()
	return s.ix
}

func (s *server) setCur(ix index) {
	s.ixMu.Lock()
	s.ix = ix
	s.ixMu.Unlock()
}

// gate is a counting semaphore used as bounded admission control:
// TryEnter claims a slot without blocking; a full gate means 429.
type gate chan struct{}

func (g gate) TryEnter() bool {
	select {
	case g <- struct{}{}:
		return true
	default:
		return false
	}
}

func (g gate) Leave() { <-g }

func newServer(ix index, cfg serverConfig) *server {
	if cfg.requestTimeout <= 0 {
		cfg.requestTimeout = 5 * time.Second
	}
	s := &server{
		ix:         ix,
		cfg:        cfg,
		mux:        http.NewServeMux(),
		searchGate: make(gate, cfg.searchSlots),
		updateGate: make(gate, cfg.updateSlots),
		idem:       newIdemCache(4096),
	}
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/searchbatch", s.handleSearchBatch)
	s.mux.HandleFunc("POST /v1/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/delete", s.handleDelete)
	s.mux.HandleFunc("POST /v1/save", s.handleSave)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	if p, ok := ix.(*shard.Index); ok {
		s.servePrimary(p)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// servePrimary turns on what only a writable primary runs — the
// replication wire behind its lease guard and, if configured, background
// compaction — for the primary this server was built over or the one its
// follower just promoted into.
func (s *server) servePrimary(p *shard.Index) {
	s.enableRepl(p.Dir())
	s.startAutoCompact(p)
}

// enableRepl mounts the replication wire for the primary tree at dir and
// arms its lease guard — at most once per process; later calls are
// ignored.
func (s *server) enableRepl(dir string) {
	if !s.replOn.CompareAndSwap(false, true) {
		return
	}
	s.lease.Store(newLeaseGuard(dir, s.cfg.leaseDur))
	s.mux.Handle("GET /v1/repl/", shard.NewReplHandler(dir, s.replPull))
}

// replPull vets one replication pull (the wire is mounted only while a
// primary is served): the lease guard renews the write lease on the bound
// auto-promoter's history pulls (metadata reads and plain replicas' pulls
// are lease-neutral) — or deposes this primary, if the peer's lineage
// epoch proves a completed failover elsewhere.
func (s *server) replPull(pull shard.ReplPull) error {
	return s.lease.Load().served(pull, s.cur().Epoch())
}

// startAutoCompact launches the background compaction scheduler for the
// primary ix if -auto-compact is configured. Only a primary is ever passed:
// a replica's state must stay a replayable function of its primary's WAL,
// and compaction reassigns ids. At most one scheduler runs; a leftover one
// (possible only if promotion raced a restart path) is stopped first.
func (s *server) startAutoCompact(ix *shard.Index) {
	if s.cfg.autoCompactMin <= 0 {
		return
	}
	if old := s.compactor.Swap(ix.StartAutoCompact(s.cfg.autoCompactMin)); old != nil {
		old.Stop()
	}
	log.Printf("auto-compact: folding frozen segments once %d accumulate", s.cfg.autoCompactMin)
}

// stopAutoCompact halts the scheduler (if any) and waits for an in-flight
// compaction to unwind. Called by main's drain path before Save/Close.
func (s *server) stopAutoCompact() {
	if c := s.compactor.Swap(nil); c != nil {
		c.Stop()
	}
}

// writeAllowed gates the update path behind the lease fence (no-op for
// followers, whose mutators refuse on their own).
func (s *server) writeAllowed() error {
	if g := s.lease.Load(); g != nil {
		return g.checkWrite()
	}
	return nil
}

// reqCtx derives the request's working context: the server's configured
// timeout, shortened (never extended) by the request's timeout_ms.
func (s *server) reqCtx(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := s.cfg.requestTimeout
	if timeoutMs > 0 {
		if rd := time.Duration(timeoutMs) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// statusFor maps the promips error taxonomy onto wire codes. Retryable
// means a later identical request is expected to succeed: a poisoned
// journal heals at the next Save, a deadline may be a transient stall, a
// full queue drains.
func statusFor(err error) (status int, code string, retryable bool) {
	switch {
	case errors.Is(err, promips.ErrJournalPoisoned):
		return http.StatusServiceUnavailable, client.CodeJournalPoisoned, true
	case errors.Is(err, promips.ErrDimMismatch):
		return http.StatusBadRequest, client.CodeDimMismatch, false
	case errors.Is(err, promips.ErrEmptyIndex):
		return http.StatusUnprocessableEntity, client.CodeEmptyIndex, false
	case errors.Is(err, promips.ErrClosed):
		return http.StatusServiceUnavailable, client.CodeClosed, false
	case errors.Is(err, promips.ErrReadOnlyReplica):
		return http.StatusForbidden, client.CodeReadOnly, false
	case errors.Is(err, promips.ErrStalePrimary):
		return http.StatusConflict, client.CodeStalePrimary, false
	case errors.Is(err, errLeaseExpired):
		return http.StatusServiceUnavailable, client.CodeLeaseExpired, true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, client.CodeDeadline, true
	default:
		return http.StatusInternalServerError, client.CodeInternal, false
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status, code, retryable := statusFor(err)
	if status >= 500 {
		log.Printf("promipsd: %s: %v", code, err)
	}
	// A retryable 503 (journal_poisoned waiting on a Save, a closing
	// server) carries the same back-off hint the 429 path sends, so
	// clients pace their retries instead of hammering.
	if status == http.StatusServiceUnavailable && retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, client.ErrorBody{Error: err.Error(), Code: code, Retryable: retryable})
}

func writeQueueFull(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, client.ErrorBody{
		Error:     fmt.Sprintf("%s admission queue is full", what),
		Code:      client.CodeQueueFull,
		Retryable: true,
	})
}

// maxBodyBytes caps a request body.
const maxBodyBytes = 64 << 20

// decode parses the JSON body into v, rejecting trailing garbage: after
// the one value only whitespace may follow. A body longer than maxBodyBytes
// is refused whole — wherever the excess starts — with the
// *http.MaxBytesError writeDecodeErr answers 413 to.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			return err
		}
		return errors.New("trailing data after the JSON body")
	}
	return nil
}

// writeDecodeErr answers a request whose body decode refused: 413
// too_large for a body over maxBodyBytes, 400 bad_request otherwise.
func writeDecodeErr(w http.ResponseWriter, err error) {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, client.ErrorBody{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			Code:  client.CodeTooLarge,
		})
		return
	}
	writeBadRequest(w, err)
}

func writeBadRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, client.ErrorBody{Error: "bad request: " + err.Error(), Code: client.CodeBadRequest})
}

// searchOpts is the request check both search handlers share: it refuses
// a k or a (c, p) override no index accepts, so the client gets 400
// bad_request instead of the 500 the index's plain error would map to, and
// turns the overrides into options (0 keeps the index default).
func searchOpts(k int, c, p float64) ([]promips.SearchOption, error) {
	if k <= 0 {
		return nil, fmt.Errorf("k must be positive, got %d", k)
	}
	var opts []promips.SearchOption
	if c != 0 {
		if !(c > 0 && c < 1) {
			return nil, fmt.Errorf("c must be in (0,1), got %v", c)
		}
		opts = append(opts, promips.WithC(c))
	}
	if p != 0 {
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("p must be in (0,1), got %v", p)
		}
		opts = append(opts, promips.WithP(p))
	}
	return opts, nil
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req client.SearchRequest
	if err := decode(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	opts, err := searchOpts(req.K, req.C, req.P)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	if !s.searchGate.TryEnter() {
		writeQueueFull(w, "search")
		return
	}
	defer s.searchGate.Leave()
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	res, stats, err := s.cur().Search(ctx, req.Vector, req.K, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.SearchResponse{Results: res, Stats: stats})
}

func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req client.BatchRequest
	if err := decode(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	opts, err := searchOpts(req.K, req.C, req.P)
	if err != nil {
		writeBadRequest(w, err)
		return
	}
	if !s.searchGate.TryEnter() {
		writeQueueFull(w, "search")
		return
	}
	defer s.searchGate.Leave()
	ctx, cancel := s.reqCtx(r, req.TimeoutMs)
	defer cancel()
	res, stats, err := s.cur().SearchBatch(ctx, req.Vectors, req.K, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, client.BatchResponse{Results: res, Stats: stats})
}

// withIdempotency runs fn once per Idempotency-Key: duplicate attempts
// (lost acks, concurrent retries) replay the first successful response
// instead of re-executing the update. Requests without a key run directly.
func (s *server) withIdempotency(w http.ResponseWriter, r *http.Request, fn func(w http.ResponseWriter)) {
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		fn(w)
		return
	}
	e, leader := s.idem.begin(key)
	if !leader {
		<-e.done
		replayJSON(w, e.status, e.body)
		return
	}
	cw := &captureWriter{ResponseWriter: w}
	defer func() { s.idem.finish(key, e, cw.status, cw.buf.Bytes()) }()
	fn(cw)
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req client.InsertRequest
	if err := decode(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	s.withIdempotency(w, r, func(w http.ResponseWriter) {
		if !s.updateGate.TryEnter() {
			writeQueueFull(w, "update")
			return
		}
		defer s.updateGate.Leave()
		if err := s.writeAllowed(); err != nil {
			writeErr(w, err)
			return
		}
		// Insert has no ctx parameter: durability is bounded by the journal's
		// group commit, not by a scan. The request deadline still applies to
		// admission (the gate) — an insert that entered is run to completion,
		// because a half-acknowledged update helps nobody.
		id, err := s.cur().Insert(req.Vector)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, client.InsertResponse{ID: id})
	})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req client.DeleteRequest
	if err := decode(w, r, &req); err != nil {
		writeDecodeErr(w, err)
		return
	}
	s.withIdempotency(w, r, func(w http.ResponseWriter) {
		if !s.updateGate.TryEnter() {
			writeQueueFull(w, "update")
			return
		}
		defer s.updateGate.Leave()
		if err := s.writeAllowed(); err != nil {
			writeErr(w, err)
			return
		}
		deleted, err := s.cur().DeleteChecked(req.ID)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, client.DeleteResponse{Deleted: deleted})
	})
}

func (s *server) handleSave(w http.ResponseWriter, r *http.Request) {
	if !s.updateGate.TryEnter() {
		writeQueueFull(w, "update")
		return
	}
	defer s.updateGate.Leave()
	// Save is deliberately NOT lease-fenced: it persists already-acknowledged
	// state without adding records, and it is the recovery action for a
	// poisoned journal — fencing it would wedge a partitioned primary.
	// Deposition still blocks it (a deposed primary must stop moving its
	// journal epochs, or its followers-of-record would refresh onto a
	// fenced lineage).
	if g := s.lease.Load(); g != nil {
		if err := g.checkWrite(); errors.Is(err, promips.ErrStalePrimary) {
			writeErr(w, err)
			return
		}
	}
	if err := s.cur().Save(); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// handlePromote turns a served follower into the writable primary (see
// shard.Promote): stop the poll loop, drain what remains of the dead
// primary's journals, fence the epoch, swap the served index in place.
// Idempotent at the HTTP layer: once this process has promoted, a retry
// of the promote (its ack may have been lost in flight) re-acknowledges
// success; promoting a server that was never a follower answers
// 409/not_follower.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	err := s.promoteNow("manual /v1/promote")
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, struct{}{})
	case errors.Is(err, errNotFollower):
		writeJSON(w, http.StatusConflict, client.ErrorBody{
			Error: "this server is not running a follower replica",
			Code:  client.CodeNotFollower,
		})
	default:
		writeErr(w, err)
	}
}

// errNotFollower: promotion asked of a server that never ran a follower.
var errNotFollower = errors.New("not a follower")

// promoteNow is the promotion core, shared by the /v1/promote handler and
// the auto-failover supervisor: stop the poll loop, drain what remains of
// the dead primary's journals, fence the epoch, swap the served index in
// place, and start serving replication (with a fresh lease guard) for the
// new lineage so surviving replicas can re-point here. Idempotent: once
// this process has promoted, later calls succeed as no-ops (a retried
// promote's ack may have been lost in flight).
func (s *server) promoteNow(why string) error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	f, ok := s.cur().(*shard.Follower)
	if !ok {
		if s.promoted.Load() {
			return nil
		}
		return errNotFollower
	}
	if s.stopPoll != nil {
		s.stopPoll() // no new polls; an in-flight one serializes with Promote
	}
	promoted, err := shard.Promote(f)
	if err != nil {
		return err
	}
	s.setCur(promoted)
	s.promoted.Store(true)
	s.pollFails.Store(0)
	s.quarantined.Store(false)
	// The promoted primary owns its lineage now, so background compaction
	// (if configured) is safe — and wanted, since the replica may have
	// accumulated frozen segments through WAL replay.
	s.servePrimary(promoted)
	log.Printf("promoted (%s): serving as primary at epoch %d (%d live points)", why, promoted.Epoch(), promoted.LiveCount())
	return nil
}

// handleReadyz is the readiness probe — distinct from /healthz liveness: a
// follower that is alive but not yet converged (lag > 0, or its primary
// unreadable) is NOT ready to serve reads that expect the primary's
// acknowledged state. A primary (including a freshly promoted one) is
// ready whenever it is serving.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	cur := s.cur()
	// A primary whose journal writer is poisoned acknowledges nothing: it
	// is alive (healthz) and can serve reads, but a load balancer routing
	// writes here gets only 503s until a Save heals the journal. Surface
	// that at readiness, with the same pacing hint the write path sends.
	f, isFollower := cur.(*shard.Follower)
	if !isFollower && cur.JournalPoisoned() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, client.ErrorBody{
			Error:     "not ready: journal poisoned; updates refused until a save heals it",
			Code:      client.CodeJournalPoisoned,
			Retryable: true,
		})
		return
	}
	if isFollower {
		// A quarantining follower answers from local state: reaching out to
		// the suspect primary would hang the probe — and re-arm the lease
		// the quarantine is waiting out, were the primary slow-but-alive.
		if s.quarantined.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, client.ErrorBody{
				Error: "not ready: primary suspect, failover quarantine in progress", Code: client.CodeNotReady, Retryable: true,
			})
			return
		}
		lag, err := f.Lag()
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, client.ErrorBody{
				Error: fmt.Sprintf("not ready: primary unreadable: %v", err), Code: client.CodeNotReady, Retryable: true,
			})
			return
		}
		if lag != 0 {
			writeJSON(w, http.StatusServiceUnavailable, client.ErrorBody{
				Error: fmt.Sprintf("not ready: replica lag %d", lag), Code: client.CodeNotReady, Retryable: true,
			})
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.cur()
	resp := client.StatsResponse{
		Points:     cur.Len(),
		Live:       cur.LiveCount(),
		Dim:        cur.Dim(),
		M:          cur.M(),
		JournalLen: cur.JournalLen(),
		Cache:      cur.CacheStats(),
		Recovery:   cur.Recovery(),

		Shards:           cur.Shards(),
		ShardJournalLens: cur.JournalLens(),
		Epoch:            cur.Epoch(),
	}
	if f, ok := cur.(*shard.Follower); ok {
		resp.ReadOnly = true
		rep := &client.ReplicationStats{
			Watermarks:          f.Watermarks(),
			Refreshes:           f.Refreshes(),
			ConsecutiveFailures: s.pollFails.Load(),
			Source:              f.Source(),
			Quarantined:         s.quarantined.Load(),
		}
		if rep.Quarantined {
			rep.Lag = -1 // no remote reads against a quarantined primary
		} else if lag, err := f.Lag(); err == nil {
			rep.Lag = lag
		} else {
			rep.Lag = -1 // primary unreadable right now
		}
		resp.Replication = rep
	}
	us := cur.UpdateStats()
	resp.Updates = &us
	if g := s.lease.Load(); g != nil {
		st := g.state()
		resp.Lease = &client.LeaseStats{
			Attached:    st.attached,
			Expired:     st.expired,
			Deposed:     st.deposed,
			Grantor:     st.grantor,
			RemainingMs: st.remaining.Milliseconds(),
			DriftMs:     st.drift.Milliseconds(),
		}
	}
	if c := s.compactor.Load(); c != nil {
		resp.AutoCompact = &client.AutoCompactStats{
			MinSegments: s.cfg.autoCompactMin,
			Runs:        c.Runs(),
			Failures:    c.Failures(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
