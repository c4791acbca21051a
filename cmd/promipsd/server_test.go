package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"promips"
	"promips/client"
	"promips/shard"
)

func testVecs(r *rand.Rand, n, d int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// newTestServer builds and saves a small index the way promipsctl build
// does by default (one shard) and serves it through the real handler stack,
// returning a client pointed at it and the server's base URL.
func newTestServer(t *testing.T, cfg serverConfig) (*shard.Index, *client.Client, string) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	data := testVecs(r, 200, 8)
	ix, err := shard.Build(data, shard.Options{Dir: t.TempDir(), Index: promips.Options{Seed: 8, M: 4}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newServer(ix, cfg))
	t.Cleanup(hs.Close)
	return ix, client.New(hs.URL, client.WithHTTPClient(hs.Client())), hs.URL
}

// TestRoundTrips drives every endpoint through the real HTTP stack and the
// client package: insert → search finds it → delete → stats agree.
func TestRoundTrips(t *testing.T) {
	ix, c, _ := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	ctx := context.Background()
	r := rand.New(rand.NewSource(9))
	vec := testVecs(r, 1, 8)[0]

	id, err := c.Insert(ctx, vec)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := c.Search(ctx, client.SearchRequest{Vector: vec, K: 5})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(res.Results) != 5 {
		t.Fatalf("search returned %d results, want 5", len(res.Results))
	}
	found := false
	for _, got := range res.Results {
		if got.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("freshly inserted id %d missing from its own top-5", id)
	}

	batch, err := c.SearchBatch(ctx, client.BatchRequest{Vectors: testVecs(r, 6, 8), K: 3})
	if err != nil {
		t.Fatalf("searchbatch: %v", err)
	}
	if len(batch.Results) != 6 || len(batch.Stats) != 6 {
		t.Fatalf("searchbatch returned %d/%d entries, want 6/6", len(batch.Results), len(batch.Stats))
	}

	deleted, err := c.Delete(ctx, id)
	if err != nil || !deleted {
		t.Fatalf("delete live id: deleted=%v err=%v", deleted, err)
	}
	if deleted, err = c.Delete(ctx, id); err != nil || deleted {
		t.Fatalf("delete dead id: deleted=%v err=%v", deleted, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Live != ix.LiveCount() || st.Dim != 8 {
		t.Fatalf("stats live=%d dim=%d, index says live=%d dim=8", st.Live, st.Dim, ix.LiveCount())
	}

	if err := c.Save(ctx); err != nil {
		t.Fatalf("save: %v", err)
	}
	if st, err = c.Stats(ctx); err != nil || st.JournalLen != 0 {
		t.Fatalf("after save: journal_len=%d err=%v, want 0", st.JournalLen, err)
	}
}

// TestErrorMapping asserts the wire errors carry the right status+code and
// that the client maps them back to the promips sentinels — errors.Is parity
// between remote and embedded use.
func TestErrorMapping(t *testing.T) {
	_, c, url := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	ctx := context.Background()

	_, err := c.Search(ctx, client.SearchRequest{Vector: []float32{1, 2}, K: 3})
	if !errors.Is(err, promips.ErrDimMismatch) {
		t.Fatalf("mis-dimensioned remote search = %v, want errors.Is ErrDimMismatch", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != client.CodeDimMismatch {
		t.Fatalf("wire error = %+v, want 400/%s", ae, client.CodeDimMismatch)
	}

	if _, err := c.Insert(ctx, []float32{1}); !errors.Is(err, promips.ErrDimMismatch) {
		t.Fatalf("mis-dimensioned remote insert = %v, want ErrDimMismatch", err)
	}

	// One JSON value per body: anything but whitespace after it is refused
	// before the request reaches the index. So is a k or a (c, p) override
	// no index accepts, on both search endpoints. An old client's "workers"
	// field is ignored.
	const okBody = `{"vector":[1,2,3,4,5,6,7,8],"k":1}`
	const vecs = `"vectors":[[1,2,3,4,5,6,7,8],[8,7,6,5,4,3,2,1]]`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/search", okBody + " \n\t", http.StatusOK},
		{"/v1/search", `{"k":1}{"k":2}`, http.StatusBadRequest},
		{"/v1/search", `{"k":1} x`, http.StatusBadRequest},
		{"/v1/search", okBody + `{"k":2}`, http.StatusBadRequest},
		{"/v1/search", okBody + "\n" + `]`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":0}`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":-1}`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":1,"c":1.5}`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":1,"c":1}`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":1,"p":-0.2}`, http.StatusBadRequest},
		{"/v1/search", `{"vector":[1,2,3,4,5,6,7,8],"k":1,"c":0.8,"p":0.7}`, http.StatusOK},
		{"/v1/searchbatch", `{` + vecs + `,"k":2}`, http.StatusOK},
		{"/v1/searchbatch", `{` + vecs + `,"k":2,"workers":3}`, http.StatusOK},
		{"/v1/searchbatch", `{` + vecs + `,"k":0}`, http.StatusBadRequest},
		{"/v1/searchbatch", `{` + vecs + `,"k":2,"p":1}`, http.StatusBadRequest},
		{"/v1/searchbatch", `{` + vecs + `,"k":2,"c":-1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(url+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb client.ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != tc.want || (tc.want == http.StatusBadRequest && eb.Code != client.CodeBadRequest) {
			t.Errorf("%s body %q = %d/%q, want %d", tc.path, tc.body, resp.StatusCode, eb.Code, tc.want)
		}
	}
}

// repeatReader yields pat over and over, n bytes in all: a request body of
// any length without holding it in memory.
type repeatReader struct {
	pat []byte
	off int
	n   int64
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.pat[r.off]
		r.off = (r.off + 1) % len(r.pat)
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestOversizedBody: a body over the 64 MiB limit is refused with 413
// too_large whole — one that is valid JSON but for its length (it used to
// be cut at the limit and refused as malformed), and one whose trailing
// garbage starts past the limit (it used to be accepted).
func TestOversizedBody(t *testing.T) {
	ix, _, _ := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	h := newServer(ix, serverConfig{searchSlots: 4, updateSlots: 4})
	const okBody = `{"vector":[1,2,3,4,5,6,7,8],"k":1}`
	long := int64(maxBodyBytes) + 1024
	for _, tc := range []struct {
		name, path string
		body       io.Reader
		want       int
	}{
		{"at the limit", "/v1/search", io.MultiReader(strings.NewReader(okBody),
			&repeatReader{pat: []byte(" "), n: maxBodyBytes - int64(len(okBody))}), http.StatusOK},
		{"valid JSON past the limit", "/v1/search", io.MultiReader(strings.NewReader(`{"k":1,"vector":[1,2,3,4,5,6,7,8],"pad":[`),
			&repeatReader{pat: []byte("0,"), n: long}, strings.NewReader(`0]}`)), http.StatusRequestEntityTooLarge},
		{"garbage past the limit", "/v1/insert", io.MultiReader(strings.NewReader(`{"vector":[1,2,3,4,5,6,7,8]}`),
			&repeatReader{pat: []byte(" "), n: long}, strings.NewReader("x")), http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		var eb client.ErrorBody
		json.NewDecoder(rec.Body).Decode(&eb)
		if rec.Code != tc.want || (tc.want == http.StatusRequestEntityTooLarge && eb.Code != client.CodeTooLarge) {
			t.Errorf("%s, %s: %d/%q, want %d", tc.name, tc.path, rec.Code, eb.Code, tc.want)
		}
	}
}

// TestSlowBodyClosed: a client that trickles a request body slower than
// the request deadline allows gets its connection closed once -timeout has
// passed, instead of holding the handler's goroutine for as long as it
// keeps trickling (here 1,000 bytes at one per 20 ms).
func TestSlowBodyClosed(t *testing.T) {
	ix, _, _ := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	const timeout = 200 * time.Millisecond
	hs := httptest.NewUnstartedServer(nil)
	hs.Config = newHTTPServer("", newServer(ix, serverConfig{searchSlots: 4, updateSlots: 4, requestTimeout: timeout}), timeout)
	hs.Start()
	t.Cleanup(hs.Close)

	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/search HTTP/1.1\r\nHost: promipsd\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := io.WriteString(conn, " "); err != nil {
				return
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	// Reading to EOF ends when the server closes the connection; a read
	// deadline far past -timeout turns a connection held open into a
	// timeout. Any other read error is the close too: the trickled bytes
	// the server never read can turn its close into a reset.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	var ne net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
}

// TestStatusForPoisoned pins the satellite: a poisoned journal surfaces as
// 503 + the journal_poisoned code, marked retryable — not a generic 500.
func TestStatusForPoisoned(t *testing.T) {
	wrapped := errorsJoinLike()
	status, code, retryable := statusFor(wrapped)
	if status != http.StatusServiceUnavailable || code != client.CodeJournalPoisoned || !retryable {
		t.Fatalf("statusFor(poisoned) = %d/%s/retryable=%v, want 503/%s/true",
			status, code, retryable, client.CodeJournalPoisoned)
	}
	// And the client maps that code back to the sentinel.
	ae := &client.APIError{Status: status, Code: code, Retryable: retryable, Message: wrapped.Error()}
	if !errors.Is(ae, promips.ErrJournalPoisoned) {
		t.Fatal("client does not map journal_poisoned back to ErrJournalPoisoned")
	}

	if status, code, _ := statusFor(context.DeadlineExceeded); status != http.StatusGatewayTimeout || code != client.CodeDeadline {
		t.Fatalf("statusFor(deadline) = %d/%s, want 504/%s", status, code, client.CodeDeadline)
	}
	if status, code, _ := statusFor(errors.New("boom")); status != http.StatusInternalServerError || code != client.CodeInternal {
		t.Fatalf("statusFor(opaque) = %d/%s, want 500/%s", status, code, client.CodeInternal)
	}
}

// errorsJoinLike builds an error shaped like what core.Insert returns off a
// poisoned journal: the sentinel wrapped under operation context.
func errorsJoinLike() error {
	return &wrapErr{msg: "core: insert: wal: update journal poisoned by earlier failure: injected fault"}
}

type wrapErr struct{ msg string }

func (e *wrapErr) Error() string { return e.msg }
func (e *wrapErr) Is(target error) bool {
	return target == promips.ErrJournalPoisoned
}

// TestQueueFull pins bounded admission: with zero slots every request is
// refused with 429 + queue_full + Retry-After, and the client marks it
// retryable.
func TestQueueFull(t *testing.T) {
	_, c, _ := newTestServer(t, serverConfig{searchSlots: 0, updateSlots: 0})
	ctx := context.Background()

	_, err := c.Search(ctx, client.SearchRequest{Vector: make([]float32, 8), K: 3})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != client.CodeQueueFull || !ae.Retryable {
		t.Fatalf("search with zero slots = %v, want 429/%s retryable", err, client.CodeQueueFull)
	}
	if _, err := c.Insert(ctx, make([]float32, 8)); !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("insert with zero slots = %v, want 429", err)
	}
}

// TestRequestTimeout pins the deadline path end to end: a request-level
// timeout_ms far below the work's duration must come back 504/deadline.
// A 1ns server cap guarantees expiry without any slow-disk machinery.
func TestRequestTimeout(t *testing.T) {
	ix, _, _ := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	hs := httptest.NewServer(newServer(ix, serverConfig{
		requestTimeout: 1, // 1ns: every context is born expired
		searchSlots:    4,
		updateSlots:    4,
	}))
	defer hs.Close()
	c := client.New(hs.URL, client.WithHTTPClient(hs.Client()))

	_, err := c.Search(context.Background(), client.SearchRequest{Vector: make([]float32, 8), K: 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search under expired deadline = %v, want errors.Is DeadlineExceeded", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout || !ae.Retryable {
		t.Fatalf("wire error = %+v, want 504 retryable", ae)
	}
}

// TestShardedServing serves a sharded index and a follower replica through
// the real handler stack: stats must carry the shard and replication
// extras, follower updates must come back 403/read_only mapping to
// ErrReadOnlyReplica, and after a poll the follower answers searches
// byte-identically to the primary.
func TestShardedServing(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	data := testVecs(r, 120, 8)
	primaryDir := filepath.Join(t.TempDir(), "primary")
	primary, err := shard.Build(data, shard.Options{
		Shards: 4, Dir: primaryDir, Index: promips.Options{Seed: 18, M: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	if err := primary.Save(); err != nil {
		t.Fatal(err)
	}

	cfg := serverConfig{searchSlots: 4, updateSlots: 4}
	phs := httptest.NewServer(newServer(primary, cfg))
	t.Cleanup(phs.Close)
	pc := client.New(phs.URL, client.WithHTTPClient(phs.Client()))
	ctx := context.Background()

	vec := testVecs(r, 1, 8)[0]
	id, err := pc.Insert(ctx, vec)
	if err != nil {
		t.Fatalf("primary insert: %v", err)
	}
	if want := uint32(len(data)); id != want {
		t.Fatalf("sharded insert id %d, want dense next id %d", id, want)
	}
	st, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || len(st.ShardJournalLens) != 4 || st.ReadOnly {
		t.Fatalf("primary stats extras wrong: %+v", st)
	}
	if st.JournalLen != 1 {
		t.Fatalf("primary journal_len %d after one insert, want 1", st.JournalLen)
	}

	replicaDir := filepath.Join(t.TempDir(), "replica")
	if err := shard.Snapshot(primaryDir, replicaDir); err != nil {
		t.Fatal(err)
	}
	f, err := shard.OpenFollower(replicaDir, primaryDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	fhs := httptest.NewServer(newServer(f, cfg))
	t.Cleanup(fhs.Close)
	fc := client.New(fhs.URL, client.WithHTTPClient(fhs.Client()))

	fst, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !fst.ReadOnly || fst.Replication == nil {
		t.Fatalf("follower stats missing replication extras: %+v", fst)
	}
	if fst.Replication.Lag != 0 {
		t.Fatalf("follower lag %d after poll, want 0", fst.Replication.Lag)
	}
	if fst.Live != st.Live {
		t.Fatalf("follower live %d, primary live %d", fst.Live, st.Live)
	}

	_, err = fc.Insert(ctx, vec)
	if !errors.Is(err, promips.ErrReadOnlyReplica) {
		t.Fatalf("follower insert = %v, want errors.Is ErrReadOnlyReplica", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Code != client.CodeReadOnly {
		t.Fatalf("follower insert wire error = %+v, want 403/%s", ae, client.CodeReadOnly)
	}
	if err := fc.Save(ctx); !errors.Is(err, promips.ErrReadOnlyReplica) {
		t.Fatalf("follower save = %v, want ErrReadOnlyReplica", err)
	}

	pres, err := pc.Search(ctx, client.SearchRequest{Vector: vec, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fc.Search(ctx, client.SearchRequest{Vector: vec, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fres.Results, pres.Results) {
		t.Fatalf("follower search diverges from primary:\n got %v\nwant %v", fres.Results, pres.Results)
	}
}

// TestDefaultPrimaryIsFollowable: there is one serving shape, so the index a
// plain `promipsctl build` makes (one shard) reports itself like any other
// and serves the replication wire — a follower bootstraps from it over HTTP
// and converges on a later insert through WAL shipping alone.
func TestDefaultPrimaryIsFollowable(t *testing.T) {
	primary, pc, url := newTestServer(t, serverConfig{searchSlots: 4, updateSlots: 4})
	ctx := context.Background()

	st, err := pc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || len(st.ShardJournalLens) != 1 || st.ReadOnly {
		t.Fatalf("default-built primary stats: %+v, want shards 1", st)
	}
	resp, err := http.Get(url + "/v1/repl/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/repl/manifest on a default-built primary = %d, want 200", resp.StatusCode)
	}

	replicaDir := filepath.Join(t.TempDir(), "replica")
	if err := shard.SnapshotFrom(shard.NewHTTPSource(url), replicaDir); err != nil {
		t.Fatalf("snapshot over HTTP: %v", err)
	}
	f, err := shard.OpenFollowerFrom(replicaDir, shard.NewHTTPSource(url))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	vec := testVecs(rand.New(rand.NewSource(21)), 1, 8)[0]
	if _, err := pc.Insert(ctx, vec); err != nil {
		t.Fatal(err)
	}
	if applied, err := f.Poll(); err != nil || applied != 1 {
		t.Fatalf("poll applied %d records, err %v; want the one insert", applied, err)
	}
	if lag, err := f.Lag(); err != nil || lag != 0 {
		t.Fatalf("lag %d err %v after poll, want 0", lag, err)
	}
	pres, _, err := primary.Search(ctx, vec, 5)
	if err != nil {
		t.Fatal(err)
	}
	fres, _, err := f.Search(ctx, vec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fres, pres) {
		t.Fatalf("follower search diverges from primary:\n got %v\nwant %v", fres, pres)
	}
}

// TestBareIndexRefused: a directory holding an index saved without the
// shard layer (promips.Build + Save, or a pre-sharding promipsctl build) is
// not opened as "no index here" — promipsd names the layout and the fix.
func TestBareIndexRefused(t *testing.T) {
	dir := t.TempDir()
	ix, err := promips.Build(testVecs(rand.New(rand.NewSource(5)), 50, 8), promips.Options{Dir: dir, Seed: 6, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	_, err = openIndex(runConfig{dir: dir})
	if err == nil || !strings.Contains(err.Error(), "bare promips index") || !strings.Contains(err.Error(), "promipsctl build") {
		t.Fatalf("openIndex on a bare index = %v, want the rebuild-with-promipsctl error", err)
	}
}
