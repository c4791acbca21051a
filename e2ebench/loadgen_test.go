package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"promips"
	"promips/client"
	"promips/mips"
)

// fakeServer answers /v1/search in a fixed rotation: a correct answer, a
// 429, an answer with a wrong inner product, an unsorted answer.
func fakeServer(t *testing.T, data [][]float32) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req client.SearchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		top := mips.NewTopK(req.K)
		for i, v := range data {
			top.Offer(uint32(i), dot(v, req.Vector))
		}
		var res []promips.Result
		for _, x := range top.Results() {
			res = append(res, promips.Result(x))
		}
		w.Header().Set("Content-Type", "application/json")
		switch n.Add(1) % 4 {
		case 1:
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(client.ErrorBody{Error: "full", Code: client.CodeQueueFull, Retryable: true})
			return
		case 3:
			res[4].IP *= 1.001
		case 0:
			res[0], res[9] = res[9], res[0]
		}
		json.NewEncoder(w).Encode(client.SearchResponse{Results: res})
	}))
}

// A refusal and a wrong answer each count as attempted and failed, and
// leave no latency sample behind.
func TestFailureAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float32, 64)
	for i := range data {
		data[i] = make([]float32, 16)
		for j := range data[i] {
			data[i][j] = rng.Float32()
		}
	}
	srv := fakeServer(t, data)
	defer srv.Close()
	w := &workload{Name: "t"}
	r := &runner{w: w, seed: 1, in: &inputs{data: data}, cl: newClient(srv.URL), model: newModel(data)}
	tl := r.closedLoop(context.Background(), 1, 12, func(i int) op { return w.opAt(1, phaseClosed, i) })
	if tl.attempted != 12 || tl.failed != 9 {
		t.Errorf("attempted %d failed %d, want 12 and 9", tl.attempted, tl.failed)
	}
	if tl.byOutcome[ok] != 3 || tl.byOutcome[refused] != 3 || tl.byOutcome[wrong] != 6 {
		t.Errorf("outcomes %v, want 3 ok, 3 refused, 6 wrong", tl.byOutcome)
	}
	if n := len(latencies(tl.samples, w.isPrimary)); n != 3 || len(tl.samples) != 3 {
		t.Errorf("%d latency samples, want 3: failures must not contribute", n)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		err  error
		want outcome
	}{
		{nil, ok},
		{&client.APIError{Status: 429, Code: client.CodeQueueFull}, refused},
		{&client.APIError{Status: 504, Code: client.CodeDeadline}, deadline},
		{&client.APIError{Status: 500, Code: client.CodeInternal}, serverErr},
		{context.DeadlineExceeded, deadline},
		{errors.New("connection refused"), transport},
	} {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// An insert the model has not recorded yet is checked once the ack is in.
func TestDeferredCheck(t *testing.T) {
	data := make([][]float32, 12)
	for i := range data {
		data[i] = []float32{float32(i + 1), 1}
	}
	m := newModel(data[:11])
	q := []float32{1, 0}
	var res []promips.Result
	for i := 11; i >= 2; i-- { // ids 11..2, best first; id 11 is not in the model yet
		res = append(res, promips.Result{ID: uint32(i), IP: float64(i + 1)})
	}
	if !m.checkResults(res, q) {
		t.Fatal("an unknown id must defer, not fail")
	}
	m.ack(11, data[11])
	if bad := m.settle(); bad != 0 {
		t.Fatalf("settle found %d wrong after the ack arrived", bad)
	}
	m.checkResults(append([]promips.Result{{ID: 99, IP: 1e9}}, res[:9]...), q)
	if bad := m.settle(); bad != 1 {
		t.Fatalf("settle found %d wrong for an id that was never acknowledged, want 1", bad)
	}
	if m.ack(11, data[11]) || m.ack(3, data[3]) {
		t.Fatal("a duplicate id must not be accepted")
	}
}

func TestSaturation(t *testing.T) {
	// 300 sends in slices of 30, the last 10 of each in its last third.
	phase := func(late float64, inflight func(i int) int) *openResult {
		o := &openResult{}
		for i := 0; i < 300; i++ {
			o.lateMs = append(o.lateMs, late)
			o.inflight = append(o.inflight, inflight(i))
			o.sliceTail = append(o.sliceTail, i%30 >= 20)
		}
		return o
	}
	steady := func(i int) int { return 1 + i%3 }
	growing := func(i int) int { return 1 + i%30 }
	if why := saturation(phase(0.1, steady), 0.1); len(why) != 0 {
		t.Errorf("healthy phase reported saturated: %v", why)
	}
	if why := saturation(phase(0.1, growing), 0.1); len(why) != 1 {
		t.Errorf("growing backlog: %v", why)
	}
	slow, stalled := phase(0.1, steady), phase(0.1, steady)
	for i := range slow.lateMs {
		if i%8 == 0 {
			slow.lateMs[i] = 8
		}
		if i < 10 {
			stalled.lateMs[i] = 40
		}
	}
	if why := saturation(slow, 0.1); len(why) != 1 {
		t.Errorf("late generator: %v", why)
	}
	if why := saturation(stalled, 0.1); len(why) != 0 {
		t.Errorf("one stall of the machine is not a late generator: %v", why)
	}
	if why := saturation(phase(0.1, steady), 0.5); len(why) != 1 {
		t.Errorf("greedy harness: %v", why)
	}
	if why := saturation(phase(8, growing), 0.5); len(why) != 3 {
		t.Errorf("everything wrong at once: %v", why)
	}
}
