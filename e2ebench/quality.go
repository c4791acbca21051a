package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"promips"
	"promips/client"
	"promips/exact"
	"promips/mips"
)

// quality is the accuracy of the served index on the workload's fixed
// query set, against the harness's own exact answers.
type quality struct {
	recall, overallRatio float64
	guaranteed           float64 // share of queries with <o_i,q> >= c*<o*_i,q> at every rank
}

// exactTopK scans the live vectors for each query's true top-k. It does
// the work of exact.Compute without sorting all n products per query, on
// every core (the server is idle while it runs).
func exactTopK(ids []uint32, vs [][]float32, queries [][]float32, k int) *exact.GroundTruth {
	gt := &exact.GroundTruth{K: k, Queries: len(queries), TopK: make([][]mips.Result, len(queries))}
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range next {
				top := mips.NewTopK(k)
				for i, v := range vs {
					top.Offer(ids[i], dot(v, queries[qi]))
				}
				gt.TopK[qi] = top.Results()
			}
		}()
	}
	for qi := range queries {
		next <- qi
	}
	close(next)
	wg.Wait()
	return gt
}

// measureQuality issues the quality set through the client and scores the
// answers against the model of live vectors.
func (r *runner) measureQuality(ctx context.Context) (quality, error) {
	queries := make([][]float32, qualityQueries)
	for i := range queries {
		o := r.w.opAt(corpusSeed, phaseQuality, i) // the same set on every seed
		if o.kind == opBatch {
			o.kind = opSearch
		}
		queries[i] = r.in.query(o)
	}
	answers := make([][]promips.Result, len(queries))
	for i, q := range queries {
		resp, err := r.cl.Search(ctx, client.SearchRequest{Vector: q, K: topK})
		if err != nil {
			return quality{}, fmt.Errorf("quality query %d: %w", i, err)
		}
		if !r.model.checkResults(resp.Results, q) {
			return quality{}, fmt.Errorf("quality query %d: wrong answer", i)
		}
		answers[i] = resp.Results
	}
	ids, vs := r.model.live()
	return score(exactTopK(ids, vs, queries, topK), answers), nil
}

func score(gt *exact.GroundTruth, answers [][]promips.Result) quality {
	var q quality
	for i, res := range answers {
		got := make([]mips.Result, len(res))
		for j, x := range res {
			got[j] = mips.Result(x)
		}
		q.recall += gt.Recall(i, got)
		q.overallRatio += gt.OverallRatio(i, got)
		met := true
		for j, ex := range gt.TopK[i] {
			if j >= len(got) || got[j].IP < ratioC*ex.IP {
				met = false
			}
		}
		if met {
			q.guaranteed++
		}
	}
	n := float64(len(answers))
	return quality{q.recall / n, q.overallRatio / n, q.guaranteed / n}
}
