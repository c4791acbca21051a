// Package client speaks promipsd's HTTP/JSON protocol. It owns the wire
// types (the server imports them from here, so the two cannot drift) and
// maps the server's typed error codes back onto the promips sentinels —
// errors.Is(err, promips.ErrJournalPoisoned) works the same against a
// remote index as against an embedded one.
package client

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"promips"
)

// Wire types. Requests carry an optional TimeoutMs: the server derives the
// request context's deadline from it, capped by its own -timeout flag, so
// a slow query is cut off server-side with 504/CodeDeadline rather than
// only by the client hanging up.

// SearchRequest asks for the top K maximum-inner-product points.
type SearchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
	// C and P override the index's (c, p) guarantee knobs for this query
	// (0 keeps the index default), exactly like promips.WithC / WithP.
	C float64 `json:"c,omitempty"`
	P float64 `json:"p,omitempty"`
	// TimeoutMs is the per-request deadline in milliseconds (0 = server
	// default; values above the server's cap are clamped to it).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SearchResponse carries the results and the query's work stats. On the
// wire stats.TerminatedBy is "A", "B", "exhausted" or "scan" (answered
// exactly by one sequential scan), joined with "+" across shards.
type SearchResponse struct {
	Results []promips.Result    `json:"results"`
	Stats   promips.SearchStats `json:"stats"`
}

// BatchRequest runs one query per vector over the server's worker pool,
// which has one worker per CPU of the server and no per-request size (a
// "workers" field from older clients is ignored).
type BatchRequest struct {
	Vectors   [][]float32 `json:"vectors"`
	K         int         `json:"k"`
	C         float64     `json:"c,omitempty"`
	P         float64     `json:"p,omitempty"`
	TimeoutMs int64       `json:"timeout_ms,omitempty"`
}

// BatchResponse mirrors promips.SearchBatch: results and stats per query,
// in request order.
type BatchResponse struct {
	Results [][]promips.Result    `json:"results"`
	Stats   []promips.SearchStats `json:"stats"`
}

// InsertRequest adds one vector to the index.
type InsertRequest struct {
	Vector    []float32 `json:"vector"`
	TimeoutMs int64     `json:"timeout_ms,omitempty"`
}

// InsertResponse acknowledges a durable insert with its assigned id.
type InsertResponse struct {
	ID uint32 `json:"id"`
}

// DeleteRequest tombstones one id.
type DeleteRequest struct {
	ID        uint32 `json:"id"`
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
}

// DeleteResponse reports whether the id was live (false = already absent,
// which is not an error).
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
}

// StatsResponse is a point-in-time snapshot of the served index. The
// scalar fields aggregate over the index's K shards — counters sum, Cache
// is the component-wise total — and the Shards fields break the journal
// down per shard. For a follower replica ReadOnly is true and Replication
// reports convergence.
type StatsResponse struct {
	Points     int                   `json:"points"`      // base-index points (compaction folds the delta in)
	Live       int                   `json:"live"`        // live points: base + delta - tombstones
	Dim        int                   `json:"dim"`         // vector dimensionality
	M          int                   `json:"m"`           // projected dimensionality
	JournalLen int                   `json:"journal_len"` // acknowledged updates a crash-recovery would replay (summed over shards)
	Cache      promips.CacheStats    `json:"cache"`       // whole-run page-read counters (summed over shards)
	Recovery   promips.RecoveryStats `json:"recovery"`    // what the journal replay at startup recovered (summed over shards)

	// Shards is the shard count K (1 for a default promipsctl build).
	// ShardJournalLens is each shard's pending journal length in shard
	// order. Epoch is the failover epoch fence the index serves under
	// (bumped by promotion; omitted while 0).
	Shards           int   `json:"shards,omitempty"`
	ShardJournalLens []int `json:"shard_journal_lens,omitempty"`
	Epoch            int64 `json:"epoch,omitempty"`

	// ReadOnly marks a follower replica: updates are rejected with
	// CodeReadOnly, and Replication reports how converged it is.
	ReadOnly    bool              `json:"read_only,omitempty"`
	Replication *ReplicationStats `json:"replication,omitempty"`

	// Updates reports the update pipeline: delta occupancy, frozen
	// segments, tombstones and the lifetime freeze counter (summed over
	// shards).
	Updates *promips.UpdateStats `json:"updates,omitempty"`
	// Lease reports a primary's write-fencing lease (absent on a
	// follower; it only ever expires when the server runs with -lease > 0).
	Lease *LeaseStats `json:"lease,omitempty"`
	// AutoCompact reports the background compaction scheduler (present
	// only when the server runs with -auto-compact > 0).
	AutoCompact *AutoCompactStats `json:"auto_compact,omitempty"`
}

// LeaseStats reports the state of a replicated primary's write-fencing
// lease.
type LeaseStats struct {
	// Attached reports that an auto-promoting follower's history pull has
	// armed the lease (in this run or a persisted previous one).
	Attached bool `json:"attached"`
	// Expired reports that the fence instant has passed: writes are being
	// refused with CodeLeaseExpired until the grantor pulls again.
	Expired bool `json:"expired"`
	// Deposed reports a completed failover elsewhere: this primary is
	// permanently fenced (CodeStalePrimary).
	Deposed bool `json:"deposed,omitempty"`
	// Grantor is the promoter identity the lease is bound to.
	Grantor string `json:"grantor,omitempty"`
	// RemainingMs is how long until the fence instant, measured on the
	// monotonic clock; <= 0 once fenced.
	RemainingMs int64 `json:"remaining_ms"`
	// DriftMs is how far the wall clock has stepped or slewed against the
	// monotonic clock since the lease guard started — the margin by which
	// the persisted (wall-stamped) deadline may be off after a restart.
	DriftMs int64 `json:"drift_ms"`
}

// AutoCompactStats reports the background compaction scheduler.
type AutoCompactStats struct {
	// MinSegments is the per-shard frozen-segment count that triggers a
	// compaction run.
	MinSegments int `json:"min_segments"`
	// Runs counts completed background compactions.
	Runs int64 `json:"runs"`
	// Failures counts failed attempts (each retried on a later tick).
	Failures int64 `json:"failures,omitempty"`
}

// ReplicationStats reports a follower replica's convergence.
type ReplicationStats struct {
	// Watermarks is the per-shard LSN watermark: how many records of the
	// primary shard's current journal epoch the replica's state covers.
	Watermarks []int64 `json:"watermarks"`
	// Lag is the primary's acknowledged records not yet applied here,
	// summed over shards, as of the stats call; 0 means converged.
	Lag int64 `json:"lag"`
	// Refreshes counts full shard re-snapshots (primary Save/Compact
	// epochs crossed).
	Refreshes int64 `json:"refreshes"`
	// ConsecutiveFailures counts poll rounds that have failed in a row as
	// of the stats call; 0 means the last round succeeded. The follower's
	// poll loop backs off exponentially while this climbs, and its
	// supervisor (when -auto-promote is set) treats a sustained run of
	// failures as primary-death suspicion.
	ConsecutiveFailures int64 `json:"consecutive_failures,omitempty"`
	// Source names the replication transport ("dir:/path" or the primary's
	// base URL).
	Source string `json:"source,omitempty"`
	// Quarantined reports that the auto-failover supervisor has suspected
	// the primary dead and is waiting out its write lease before
	// promoting. While it is set, Lag is -1: the follower answers stats
	// and readiness from local state only, issuing no reads against the
	// suspect primary.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	Retryable bool   `json:"retryable"`
}

// Error codes. The server maps the promips error taxonomy onto these; the
// client maps them back (see APIError.Is).
const (
	CodeBadRequest      = "bad_request"      // 400: malformed JSON, missing fields
	CodeTooLarge        = "too_large"        // 413: the request body exceeds the server's 64 MiB limit
	CodeDimMismatch     = "dim_mismatch"     // 400: vector dimensionality does not match the index
	CodeEmptyIndex      = "empty_index"      // 422: the index has no live points
	CodeQueueFull       = "queue_full"       // 429: admission queue overflow; retry after backoff
	CodeClosed          = "closed"           // 503: the index is shutting down
	CodeReadOnly        = "read_only"        // 403: follower replica; address updates to the primary
	CodeJournalPoisoned = "journal_poisoned" // 503: updates refused until a Save heals the journal; retryable
	CodeDeadline        = "deadline"         // 504: the per-request deadline expired
	CodeNotFollower     = "not_follower"     // 409: promote asked of a server not running a follower
	CodeNotReady        = "not_ready"        // 503 from /v1/readyz: follower not yet converged
	CodeStalePrimary    = "stale_primary"    // 409: this server was deposed by a newer failover epoch
	CodeLeaseExpired    = "lease_expired"    // 503: primary's replication lease lapsed; writes fenced until its auto-promoting follower pulls again
	CodeInternal        = "internal"         // 500: everything else
)

// APIError is a non-2xx server response. It implements errors.Is against
// the promips sentinels, so remote and embedded error handling share one
// code path.
type APIError struct {
	Status    int    // HTTP status
	Code      string // one of the Code constants
	Message   string // human-readable detail from the server
	Retryable bool   // the server expects a later retry to succeed
	// RetryAfter is the server's Retry-After hint (0 = none). The retry
	// loop honors it over its own exponential backoff.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("promipsd: %s (http %d, code %s)", e.Message, e.Status, e.Code)
}

// Is maps wire codes back onto the promips sentinels.
func (e *APIError) Is(target error) bool {
	switch e.Code {
	case CodeDimMismatch:
		return target == promips.ErrDimMismatch
	case CodeEmptyIndex:
		return target == promips.ErrEmptyIndex
	case CodeClosed:
		return target == promips.ErrClosed
	case CodeJournalPoisoned:
		return target == promips.ErrJournalPoisoned
	case CodeReadOnly:
		return target == promips.ErrReadOnlyReplica
	case CodeDeadline:
		return target == context.DeadlineExceeded
	case CodeStalePrimary:
		return target == promips.ErrStalePrimary
	}
	return false
}

// Client talks to one promipsd instance.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	boBase  time.Duration
	boMax   time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pooling, TLS, client-side timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries makes every call retry up to n additional attempts on
// RETRYABLE failures only: transport errors (the request may never have
// reached the server) and responses whose error body is marked retryable —
// queue_full backpressure, journal_poisoned awaiting a Save, a draining
// server. Non-retryable errors (bad request, dim mismatch, read-only
// replica, …) and the caller's own context expiry are returned
// immediately; when the budget runs out, the last error is returned
// unchanged. Inserts and deletes are safe to retry because every logical
// call carries one Idempotency-Key across all its attempts — the server
// deduplicates, so an ack lost in transit cannot double-apply. The default
// is 0 (single attempt).
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the retry delay's exponential range: attempt i waits a
// jittered base·2^i, capped at max — unless the server sent Retry-After,
// which is honored verbatim. Defaults: 100ms base, 2s cap.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.boBase = base
		}
		if max > 0 {
			c.boMax = max
		}
	}
}

// New returns a client for the promipsd at baseURL, e.g.
// "http://127.0.0.1:7845". The default transport has a 30s overall
// timeout; per-request deadlines ride in the request bodies.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:   strings.TrimRight(baseURL, "/"),
		hc:     &http.Client{Timeout: 30 * time.Second},
		boBase: 100 * time.Millisecond,
		boMax:  2 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Search runs one top-K query.
func (c *Client) Search(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	var out SearchResponse
	err := c.post(ctx, "/v1/search", req, &out)
	return out, err
}

// SearchBatch runs one query per vector over the server's worker pool.
func (c *Client) SearchBatch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.post(ctx, "/v1/searchbatch", req, &out)
	return out, err
}

// Insert adds a vector; the returned id is assigned by the server and the
// update is durable under the index's fsync policy when this returns nil.
// All attempts of one Insert share an Idempotency-Key, so retrying after a
// lost ack returns the already-assigned id instead of inserting twice.
func (c *Client) Insert(ctx context.Context, vec []float32) (uint32, error) {
	var out InsertResponse
	err := c.postIdem(ctx, "/v1/insert", InsertRequest{Vector: vec}, &out)
	return out.ID, err
}

// Delete tombstones an id, reporting whether it was live. Idempotent and
// keyed like Insert: a retried delete reports the first attempt's answer.
func (c *Client) Delete(ctx context.Context, id uint32) (bool, error) {
	var out DeleteResponse
	err := c.postIdem(ctx, "/v1/delete", DeleteRequest{ID: id}, &out)
	return out.Deleted, err
}

// Promote asks a promipsd running a follower replica (-follow) to promote
// it to a writable primary (see shard.Promote): the server stops its poll
// loop, drains the dead primary's journal tails, fences the epoch, and
// starts accepting writes. A server not running a follower answers 409
// CodeNotFollower.
func (c *Client) Promote(ctx context.Context) error {
	return c.post(ctx, "/v1/promote", struct{}{}, &struct{}{})
}

// Stats snapshots the served index.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.get(ctx, "/v1/stats", &out)
	return out, err
}

// Save persists the index state and truncates the journal — also the
// recovery action for CodeJournalPoisoned.
func (c *Client) Save(ctx context.Context) error {
	return c.post(ctx, "/v1/save", struct{}{}, &struct{}{})
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	return c.postKeyed(ctx, path, in, out, "")
}

// postIdem posts with a fresh Idempotency-Key shared by every retry of
// this one logical call.
func (c *Client) postIdem(ctx context.Context, path string, in, out any) error {
	return c.postKeyed(ctx, path, in, out, newIdempotencyKey())
}

func (c *Client) postKeyed(ctx context.Context, path string, in, out any, idemKey string) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode %s request: %w", path, err)
	}
	return c.do(ctx, http.MethodPost, path, body, idemKey, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, "", out)
}

// do issues the request, retrying retryable failures up to the configured
// budget with jittered exponential backoff (Retry-After, when the server
// sent one, overrides the computed delay). The request is rebuilt from the
// retained body bytes on every attempt. The last error is returned
// unchanged when the budget is exhausted.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idemKey string, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := c.newRequest(ctx, method, path, body, idemKey)
		if err != nil {
			return err
		}
		lastErr = c.once(req, out)
		if lastErr == nil {
			return nil
		}
		if attempt >= c.retries || !retryable(lastErr) || ctx.Err() != nil {
			return lastErr
		}
		if err := sleepCtx(ctx, c.delay(attempt, lastErr)); err != nil {
			return lastErr
		}
	}
}

func (c *Client) newRequest(ctx context.Context, method, path string, body []byte, idemKey string) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	return req, nil
}

// once runs a single attempt.
func (c *Client) once(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb ErrorBody
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &eb) != nil || eb.Code == "" {
			eb = ErrorBody{Error: strings.TrimSpace(string(data)), Code: CodeInternal}
			if eb.Error == "" {
				eb.Error = resp.Status
			}
		}
		return &APIError{
			Status: resp.StatusCode, Code: eb.Code, Message: eb.Error,
			Retryable:  eb.Retryable,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", req.URL.Path, err)
	}
	return nil
}

// retryable classifies an attempt's failure. Server responses carry their
// own verdict in the error body; transport errors are retryable (the
// request may never have arrived — idempotency keys make that safe for
// updates) unless they are the caller's own context expiring.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// delay picks attempt i's wait: the server's Retry-After if it sent one,
// otherwise base·2^i capped at max, jittered over [d/2, d] so a thundering
// herd of clients desynchronizes.
func (c *Client) delay(attempt int, err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	d := c.boBase
	for i := 0; i < attempt && d < c.boMax; i++ {
		d *= 2
	}
	if d > c.boMax {
		d = c.boMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// parseRetryAfter accepts both RFC 9110 forms of the header: delta-seconds
// ("120") and an HTTP-date ("Fri, 08 Aug 2026 09:00:00 GMT"), the latter
// clamped at zero when the date is already past.
func parseRetryAfter(s string) time.Duration {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(s); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newIdempotencyKey draws a random 128-bit key. One key identifies one
// logical update across all its retry attempts.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a time-derived key rather than panicking in a client library.
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}
