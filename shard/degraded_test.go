package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"promips"
)

// Degraded fan-out: a K>1 search isolates failed shards by default and
// reports the loss through SearchStats.Degraded; strict mode and real
// whole-query errors keep their pre-degradation behavior.

func wantAchievedP(p float64, k, answered int) float64 {
	return 1 - float64(answered)*(1-p)/float64(k)
}

// TestDegradedSearchIsolatesFailedShard: with one shard injected to fail,
// Search still answers from the remaining shards, the Degraded report
// accounts for exactly that shard and the union-bound achieved p, and the
// merged results carry no id owned by the failed shard. The healthy-shard
// merge is cross-checked against a fault-free search filtered to the same
// id population.
func TestDegradedSearchIsolatesFailedShard(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	data := randData(r, 400, 8)
	primary := buildPrimary(t, data, 4)
	q := randData(r, 1, 8)[0]

	// Reference: fault-free search over the same surviving id population.
	want, wantSt, err := primary.Search(context.Background(), q, 10,
		promips.WithFilter(func(id uint32) bool { return id%4 != 1 }))
	if err != nil {
		t.Fatalf("reference search: %v", err)
	}
	if wantSt.Degraded != nil {
		t.Fatalf("fault-free search reported Degraded: %+v", wantSt.Degraded)
	}

	primary.SetFaults(&Faults{Shard: 1, FailAt: 1})
	defer primary.SetFaults(nil)
	got, st, err := primary.Search(context.Background(), q, 10)
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	d := st.Degraded
	if d == nil {
		t.Fatal("search with a failed shard reported no Degraded stats")
	}
	if d.ShardsTotal != 4 || d.ShardsAnswered != 3 || !reflect.DeepEqual(d.FailedShards, []int{1}) {
		t.Fatalf("degraded report = %+v, want total 4, answered 3, failed [1]", d)
	}
	p := primary.Options().P
	if want := wantAchievedP(p, 4, 3); math.Abs(d.AchievedP-want) > 1e-12 {
		t.Fatalf("AchievedP = %v, want %v (p=%v)", d.AchievedP, want, p)
	}
	for _, res := range got {
		if res.ID%4 == 1 {
			t.Fatalf("degraded result contains id %d from failed shard 1", res.ID)
		}
	}
	if !reflect.DeepEqual(ipBits(got), ipBits(want)) {
		t.Fatalf("degraded merge diverges from filtered fault-free search:\n got %v\nwant %v", got, want)
	}
}

// TestDegradedWedgeHonorsShardTimeout: a wedged shard (blocks forever) is
// cut off by WithShardTimeout and isolated; without the per-shard deadline
// the same wedge would hold the query for the caller's whole context.
func TestDegradedWedgeHonorsShardTimeout(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	data := randData(r, 200, 8)
	primary := buildPrimary(t, data, 2)
	q := randData(r, 1, 8)[0]

	primary.SetFaults(&Faults{Shard: 0, FailAt: 1, Wedge: true})
	defer primary.SetFaults(nil)
	start := time.Now()
	got, st, err := primary.Search(context.Background(), q, 5, promips.WithShardTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatalf("degraded search around wedged shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged shard held the query %v despite 50ms shard timeout", elapsed)
	}
	if st.Degraded == nil || !reflect.DeepEqual(st.Degraded.FailedShards, []int{0}) {
		t.Fatalf("degraded report = %+v, want failed [0]", st.Degraded)
	}
	if len(got) == 0 {
		t.Fatal("no results from the healthy shard")
	}
}

// TestRequireAllShardsIsStrict: the opt-in strict mode fails the whole
// query on any shard fault — and surfaces the injected error class.
func TestRequireAllShardsIsStrict(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	data := randData(r, 200, 8)
	primary := buildPrimary(t, data, 2)
	q := randData(r, 1, 8)[0]

	primary.SetFaults(&Faults{Shard: 1, FailAt: 1})
	defer primary.SetFaults(nil)
	_, _, err := primary.Search(context.Background(), q, 5, promips.WithRequireAllShards())
	if !errors.Is(err, ErrInjectedShard) {
		t.Fatalf("strict search with failed shard: got %v, want ErrInjectedShard", err)
	}
	// The injector fired once; with faults cleared strict == default.
	primary.SetFaults(nil)
	strict, st, err := primary.Search(context.Background(), q, 5, promips.WithRequireAllShards())
	if err != nil {
		t.Fatalf("strict search: %v", err)
	}
	if st.Degraded != nil {
		t.Fatalf("healthy strict search reported Degraded: %+v", st.Degraded)
	}
	def, _, err := primary.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("default search: %v", err)
	}
	if !reflect.DeepEqual(strict, def) {
		t.Fatalf("strict and default answers diverge on a healthy index:\n got %v\nwant %v", strict, def)
	}
}

// TestDegradationDoesNotMaskRealErrors: a whole-query failure (every shard
// rejects the query) surfaces the error class, and a cancelled caller gets
// the cancellation — never a partial answer.
func TestDegradationDoesNotMaskRealErrors(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	data := randData(r, 200, 8)
	primary := buildPrimary(t, data, 2)

	if _, _, err := primary.Search(context.Background(), make([]float32, 5), 5); !errors.Is(err, promips.ErrDimMismatch) {
		t.Fatalf("all-shards-failed search: got %v, want ErrDimMismatch", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := randData(r, 1, 8)[0]
	if _, _, err := primary.Search(ctx, q, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: got %v, want context.Canceled", err)
	}
}

// TestSearchBatchDegradesPerQuery: batch queries degrade independently —
// the query whose shard op was faulted carries Degraded, its neighbors do
// not, and the batch as a whole succeeds.
func TestSearchBatchDegradesPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	data := randData(r, 200, 8)
	primary := buildPrimary(t, data, 2)
	queries := randData(r, 3, 8)

	// At GOMAXPROCS 1 the pool runs the queries in order on the caller, so
	// shard 1's op stream follows the query order: its 2nd op is query 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	primary.SetFaults(&Faults{Shard: 1, FailAt: 2})
	defer primary.SetFaults(nil)
	_, sts, err := primary.SearchBatch(context.Background(), queries, 5)
	if err != nil {
		t.Fatalf("batch with one faulted query: %v", err)
	}
	for i, st := range sts {
		if i == 1 {
			if st.Degraded == nil || !reflect.DeepEqual(st.Degraded.FailedShards, []int{1}) {
				t.Fatalf("query 1 degraded report = %+v, want failed [1]", st.Degraded)
			}
			continue
		}
		if st.Degraded != nil {
			t.Fatalf("query %d unexpectedly degraded: %+v", i, st.Degraded)
		}
	}
}

// TestFollowerDegradedSearch: the replica's fan-out degrades the same way
// the primary's does.
func TestFollowerDegradedSearch(t *testing.T) {
	r := rand.New(rand.NewSource(86))
	data := randData(r, 200, 8)
	primary := buildPrimary(t, data, 2)
	f := startFollower(t, primary)

	f.SetFaults(&Faults{Shard: 0, FailAt: 1})
	defer f.SetFaults(nil)
	q := randData(r, 1, 8)[0]
	got, st, err := f.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("follower degraded search: %v", err)
	}
	if st.Degraded == nil || st.Degraded.ShardsAnswered != 1 || !reflect.DeepEqual(st.Degraded.FailedShards, []int{0}) {
		t.Fatalf("follower degraded report = %+v, want answered 1, failed [0]", st.Degraded)
	}
	for _, res := range got {
		if res.ID%2 == 0 {
			t.Fatalf("follower degraded result contains id %d from failed shard 0", res.ID)
		}
	}
}
