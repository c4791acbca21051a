package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"promips"
	"promips/shard"
)

// Degraded fan-out measurement: what failure isolation buys the serving
// tail. One shard of a K-shard index is made slow (shard.Faults.Delay —
// the deterministic injector the chaos tests use), and the same query
// workload is run three ways:
//
//	healthy             no fault — the baseline fan-out latency;
//	slow_shard_degraded the slow shard, with a per-shard deadline
//	                    (WithShardTimeout): the fan-out abandons the
//	                    laggard and answers degraded from the rest;
//	slow_shard_strict   the slow shard, no deadline: every query waits
//	                    for the slowest shard — the cost of refusing to
//	                    degrade, which is what p99 looks like without
//	                    this PR's isolation.
//
// The "shards answered" and "achieved p" columns record the price paid:
// fewer shards and a weaker union-bound guarantee on the degraded answers.

// Degraded-model parameters: the slow shard serves every op this late,
// and the degraded config abandons a shard after the timeout. The delay
// dominates the healthy in-RAM query time by orders of magnitude, so the
// strict/degraded contrast is structural, not noise.
const (
	DegradedSlowDelay    = 5 * time.Millisecond
	DegradedShardTimeout = 1 * time.Millisecond
)

// DegradedSearch builds a K-shard in-RAM index over the workload's data,
// measures the three configurations on the same warm index and renders them
// as a benchrunner table (-fig degraded).
func DegradedSearch(ctx context.Context, e *Env, shards, k int) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Degraded fan-out: one slow shard (%v) vs per-shard deadline (%v) — %s (%d shards, k=%d)",
			DegradedSlowDelay, DegradedShardTimeout, e.Cfg.Spec.Name, shards, k),
		Header: []string{"config", "p50 us", "p99 us", "QPS", "shards answered", "achieved p", "degraded"},
	}
	ix, err := shard.Build(e.Data, shard.Options{
		Shards: shards,
		Dir:    filepath.Join(e.dir, fmt.Sprintf("degraded-%d", shards)),
		Index: promips.Options{
			C: e.Cfg.C, P: e.Cfg.P, M: e.Cfg.Spec.M,
			PageSize: e.Cfg.Spec.PageSize, Seed: e.Cfg.Seed,
		},
	})
	if err != nil {
		return t, fmt.Errorf("build %d-shard degraded index: %w", shards, err)
	}
	defer ix.Close()
	// Warm pass: no point pays cold structures inside the timed loop.
	for _, q := range e.Queries {
		if _, _, err := ix.Search(ctx, q, k); err != nil {
			return t, err
		}
	}

	p := ix.Options().P
	slow := func() *shard.Faults {
		return &shard.Faults{Delay: map[int]time.Duration{0: DegradedSlowDelay}}
	}
	configs := []struct {
		name string
		flt  *shard.Faults
		opts []promips.SearchOption
	}{
		{name: "healthy"},
		{name: "slow_shard_degraded", flt: slow(), opts: []promips.SearchOption{promips.WithShardTimeout(DegradedShardTimeout)}},
		{name: "slow_shard_strict", flt: slow()},
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, cfg := range configs {
		ix.SetFaults(cfg.flt)
		lats := make([]time.Duration, 0, len(e.Queries))
		var answered, achieved float64
		degraded := 0
		start := time.Now()
		for _, q := range e.Queries {
			qs := time.Now()
			_, st, err := ix.Search(ctx, q, k, cfg.opts...)
			if err != nil {
				ix.SetFaults(nil)
				return t, fmt.Errorf("degraded config %s: %w", cfg.name, err)
			}
			lats = append(lats, time.Since(qs))
			if st.Degraded != nil {
				degraded++
				answered += float64(st.Degraded.ShardsAnswered)
				achieved += st.Degraded.AchievedP
			} else {
				answered += float64(shards)
				achieved += p
			}
		}
		elapsed := time.Since(start).Seconds()
		ix.SetFaults(nil)
		nq := float64(len(e.Queries))
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		t.AddRow(cfg.name, f1(us(lats[len(lats)/2])), f1(us(lats[len(lats)*99/100])), f1(nq/elapsed),
			fmt.Sprintf("%.2f", answered/nq), fmt.Sprintf("%.3f", achieved/nq), fmt.Sprint(degraded))
	}
	return t, nil
}
