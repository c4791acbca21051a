package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"promips"
)

// scriptRT is a deterministic scripted http.RoundTripper: attempt i gets
// step i's outcome (a transport error or a canned response); attempts past
// the script repeat the last step. It records every request so tests can
// assert attempt counts and header behavior.
type scriptRT struct {
	mu    sync.Mutex
	steps []scriptStep
	reqs  []*http.Request
}

type scriptStep struct {
	err    error // transport-level failure (response never arrives)
	status int   // else: canned HTTP response
	body   string
	header http.Header
}

func (rt *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	i := len(rt.reqs)
	rt.reqs = append(rt.reqs, req)
	if i >= len(rt.steps) {
		i = len(rt.steps) - 1
	}
	step := rt.steps[i]
	rt.mu.Unlock()
	if step.err != nil {
		return nil, step.err
	}
	h := step.header
	if h == nil {
		h = http.Header{}
	}
	return &http.Response{
		StatusCode: step.status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(step.body)),
		Request:    req,
	}, nil
}

func (rt *scriptRT) attempts() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.reqs)
}

func scripted(t *testing.T, steps []scriptStep, opts ...Option) (*Client, *scriptRT) {
	t.Helper()
	rt := &scriptRT{steps: steps}
	opts = append([]Option{
		WithHTTPClient(&http.Client{Transport: rt}),
		WithBackoff(time.Millisecond, 2*time.Millisecond),
	}, opts...)
	return New("http://scripted", opts...), rt
}

func errBody(code string, retryable bool) string {
	return fmt.Sprintf(`{"error":"scripted failure","code":%q,"retryable":%v}`, code, retryable)
}

// TestRetryTransportErrorThenSucceed: transport failures (the ack may be
// lost in flight) are retried, the call succeeds within budget, and every
// attempt of the one logical insert carries the same Idempotency-Key.
func TestRetryTransportErrorThenSucceed(t *testing.T) {
	c, rt := scripted(t, []scriptStep{
		{err: errors.New("connection refused")},
		{err: errors.New("connection reset")},
		{status: http.StatusOK, body: `{"id":7}`},
	}, WithRetries(3))
	id, err := c.Insert(context.Background(), []float32{1, 2})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if id != 7 {
		t.Fatalf("id = %d, want 7", id)
	}
	if got := rt.attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	key := rt.reqs[0].Header.Get("Idempotency-Key")
	if key == "" {
		t.Fatal("insert attempt missing Idempotency-Key")
	}
	for i, req := range rt.reqs {
		if got := req.Header.Get("Idempotency-Key"); got != key {
			t.Fatalf("attempt %d key %q != attempt 0 key %q", i, got, key)
		}
	}
}

// TestRetryBudgetExhausted: when every attempt fails retryably, the call
// stops after 1+retries attempts and surfaces the server's error unchanged
// — still mapping onto the promips sentinel via errors.Is.
func TestRetryBudgetExhausted(t *testing.T) {
	c, rt := scripted(t, []scriptStep{
		{status: http.StatusServiceUnavailable, body: errBody(CodeJournalPoisoned, true)},
	}, WithRetries(2))
	_, err := c.Insert(context.Background(), []float32{1})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeJournalPoisoned {
		t.Fatalf("got %v, want APIError journal_poisoned", err)
	}
	if !errors.Is(err, promips.ErrJournalPoisoned) {
		t.Fatalf("exhausted error lost sentinel mapping: %v", err)
	}
	if got := rt.attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestNonRetryableNeverRetried: an error the server marks non-retryable
// (here dim_mismatch) is returned after a single attempt no matter the
// budget.
func TestNonRetryableNeverRetried(t *testing.T) {
	c, rt := scripted(t, []scriptStep{
		{status: http.StatusBadRequest, body: errBody(CodeDimMismatch, false)},
	}, WithRetries(5))
	_, err := c.Insert(context.Background(), []float32{1})
	if !errors.Is(err, promips.ErrDimMismatch) {
		t.Fatalf("got %v, want ErrDimMismatch", err)
	}
	if got := rt.attempts(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

// TestRetryAfterHonored: a Retry-After header is parsed into the APIError
// and overrides the exponential backoff as the next attempt's delay.
func TestRetryAfterHonored(t *testing.T) {
	c, _ := scripted(t, []scriptStep{
		{status: http.StatusTooManyRequests, body: errBody(CodeQueueFull, true),
			header: http.Header{"Retry-After": []string{"2"}}},
	})
	err := c.once(mustReq(t, c), &struct{}{})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want APIError", err)
	}
	if ae.RetryAfter != 2*time.Second {
		t.Fatalf("RetryAfter = %v, want 2s", ae.RetryAfter)
	}
	if got := c.delay(0, ae); got != 2*time.Second {
		t.Fatalf("delay with Retry-After = %v, want exactly 2s", got)
	}
	// Without the header the delay is the jittered exponential: within
	// (0, base] for attempt 0, capped at max for large attempts.
	plain := &APIError{Status: 503, Code: CodeJournalPoisoned, Retryable: true}
	if d := c.delay(0, plain); d <= 0 || d > c.boBase {
		t.Fatalf("attempt-0 backoff %v outside (0, %v]", d, c.boBase)
	}
	if d := c.delay(30, plain); d <= 0 || d > c.boMax {
		t.Fatalf("late-attempt backoff %v outside (0, %v]", d, c.boMax)
	}
}

func mustReq(t *testing.T, c *Client) *http.Request {
	t.Helper()
	req, err := c.newRequest(context.Background(), http.MethodPost, "/v1/insert", []byte("{}"), "")
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestCallerContextStopsRetries: the caller's context expiring during
// backoff ends the loop with the last server error — retries never
// outlive the caller.
func TestCallerContextStopsRetries(t *testing.T) {
	c, rt := scripted(t, []scriptStep{
		{status: http.StatusServiceUnavailable, body: errBody(CodeJournalPoisoned, true)},
	}, WithRetries(100), WithBackoff(50*time.Millisecond, 50*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Insert(ctx, []float32{1})
	if !errors.Is(err, promips.ErrJournalPoisoned) {
		t.Fatalf("got %v, want the last server error", err)
	}
	if got := rt.attempts(); got > 3 {
		t.Fatalf("attempts = %d: retries kept running past the caller's deadline", got)
	}
}

// TestRetryAfterParse pins the header parser across both RFC 9110 forms:
// delta-seconds and HTTP-date (garbage and negatives ignored, past dates
// clamped to zero).
func TestRetryAfterParse(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":     0,
		"1":    time.Second,
		" 3 ":  3 * time.Second,
		"-1":   0,
		"soon": 0,
		// An HTTP-date in the past (or malformed) yields no delay.
		"Mon, 02 Jan 2006 15:04:05 GMT": 0,
		"Mon, 02 Jan 2006":              0,
	} {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
	// A future HTTP-date yields roughly the remaining interval. All three
	// RFC 9110 date formats must parse.
	for _, layout := range []string{http.TimeFormat, time.RFC850, time.ANSIC} {
		in := time.Now().Add(90 * time.Second).UTC().Format(layout)
		got := parseRetryAfter(in)
		if got < 80*time.Second || got > 91*time.Second {
			t.Errorf("parseRetryAfter(%q) = %v, want ~90s", in, got)
		}
	}
}
