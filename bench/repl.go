package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"promips"
	"promips/shard"
)

// Replication transport measurement: what shipping the WAL over HTTP
// costs against reading it off a shared filesystem. The same workload —
// bootstrap a replica, then repeated batches of inserts on the primary,
// each polled to convergence — runs once per transport:
//
//	dir   the follower reads the primary's directory directly
//	      (shared-filesystem deployments, the PR 7 path);
//	http  every byte crosses promipsd's /v1/repl/* wire: JSON state
//	      fingerprints, CRC-checked journal chunks, tar snapshots.
//
// The interesting outputs are bootstrap time (the snapshot copy), the
// converge latency per batch (insert-to-Lag()==0, the replication stream's
// contribution to failover RPO), and shipped records/s. Refreshes should
// be zero on both transports — steady tailing never re-snapshots — so a
// nonzero count flags a fingerprint bug, not a slow wire.

// replPoint is one transport's measurement.
type replPoint struct {
	BootstrapMS   float64
	ConvergeMSAvg float64 // per batch
	RecordsPerSec float64
	PollRounds    int64
	Refreshes     int64
}

// measureReplOne builds a fresh primary (identical data and options for
// every transport, so the rows differ only in the wire) and measures the
// bootstrap plus batches×batchSize replicated inserts.
func measureReplOne(ctx context.Context, e *Env, sourceKind string, shards, batches, batchSize int) (replPoint, error) {
	var pt replPoint
	pdir := filepath.Join(e.dir, fmt.Sprintf("repl-%s-primary", sourceKind))
	primary, err := shard.Build(e.Data, shard.Options{
		Shards: shards,
		Dir:    pdir,
		Index: promips.Options{
			C: e.Cfg.C, P: e.Cfg.P, M: e.Cfg.Spec.M,
			PageSize: e.Cfg.Spec.PageSize, Seed: e.Cfg.Seed,
		},
	})
	if err != nil {
		return pt, err
	}
	defer primary.Close()
	if err := primary.Save(); err != nil {
		return pt, err
	}

	var src shard.ReplSource
	if sourceKind == "http" {
		srv := httptest.NewServer(shard.NewReplHandler(pdir, nil))
		defer srv.Close()
		src = shard.NewHTTPSource(srv.URL)
	} else {
		src = shard.NewDirSource(pdir)
	}

	rdir := filepath.Join(e.dir, fmt.Sprintf("repl-%s-replica", sourceKind))
	start := time.Now()
	if err := shard.SnapshotFrom(src, rdir); err != nil {
		return pt, err
	}
	f, err := shard.OpenFollowerFrom(rdir, src)
	if err != nil {
		return pt, err
	}
	defer f.Close()
	if _, err := f.Poll(); err != nil {
		return pt, err
	}
	pt.BootstrapMS = float64(time.Since(start)) / float64(time.Millisecond)

	var convergeTotal time.Duration
	records := 0
	for b := 0; b < batches; b++ {
		if err := ctx.Err(); err != nil {
			return pt, err
		}
		for i := 0; i < batchSize; i++ {
			if _, err := primary.Insert(e.Data[(b*batchSize+i)%len(e.Data)]); err != nil {
				return pt, err
			}
		}
		records += batchSize
		cs := time.Now()
		for {
			if _, err := f.Poll(); err != nil {
				return pt, err
			}
			pt.PollRounds++
			lag, err := f.Lag()
			if err != nil {
				return pt, err
			}
			if lag == 0 {
				break
			}
		}
		convergeTotal += time.Since(cs)
	}
	pt.ConvergeMSAvg = float64(convergeTotal) / float64(batches) / float64(time.Millisecond)
	if s := convergeTotal.Seconds(); s > 0 {
		pt.RecordsPerSec = float64(records) / s
	}
	pt.Refreshes = f.Refreshes()
	return pt, nil
}

// ReplTransport measures each transport and renders the rows as a
// benchrunner table (-fig repl).
func ReplTransport(ctx context.Context, e *Env, shards, batches, batchSize int) (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Replication transport: dir vs http WAL shipping — %s (%d shards, %d batches × %d inserts)",
			e.Cfg.Spec.Name, shards, batches, batchSize),
		Header: []string{"source", "bootstrap ms", "converge ms/batch", "records/s", "poll rounds", "refreshes"},
	}
	for _, sourceKind := range []string{"dir", "http"} {
		p, err := measureReplOne(ctx, e, sourceKind, shards, batches, batchSize)
		if err != nil {
			return t, fmt.Errorf("repl transport %s: %w", sourceKind, err)
		}
		t.AddRow(sourceKind, f1(p.BootstrapMS), fmt.Sprintf("%.2f", p.ConvergeMSAvg), f1(p.RecordsPerSec),
			fmt.Sprint(p.PollRounds), fmt.Sprint(p.Refreshes))
	}
	return t, nil
}
