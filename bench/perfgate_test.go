package bench

import (
	"testing"

	"promips/internal/dataset"
)

// The gate workload and its anchor: the Netflix analogue (d=300, 4KB pages,
// m=6) at gateN points, gateQueries member queries at k=gateK, seed
// gateSeed. The anchor is 1,969 pages / 25 queries: projected-data and store
// pages only. It was 86.16 while the ring directory lived in a B+-tree whose
// node visits counted as page accesses (7.40 of them per query); the
// directory is held in memory now and costs none. Change it only with an
// intentional, explained change to what a query reads: edit the anchor and
// say why in CHANGES.
const (
	gateN       = 1500
	gateQueries = 25
	gateK       = 10
	gateSeed    = 1
	gateAnchor  = 78.76
)

// gateTolerance is the allowed pages/query regression before the gate
// fails. The measurement is deterministic for a fixed workload (the Page
// Access metric has no timing component), so 5% is slack for intentional
// small trade-offs, not for noise.
const gateTolerance = 1.05

// TestPagesPerQueryGate is the CI perf gate: it re-measures pages/query on
// the gate workload and fails on a >5% regression against gateAnchor. Unlike
// ns/op, the metric is exact and machine-independent, so it can gate every
// test run — including short mode and -race — without flaking.
func TestPagesPerQueryGate(t *testing.T) {
	got, err := gatePagesPerQuery()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pages/query: measured %.2f, baseline %.2f (limit %.2f)", got, gateAnchor, gateAnchor*gateTolerance)
	if got > gateAnchor*gateTolerance {
		t.Fatalf("pages/query regressed: measured %.2f > baseline %.2f +5%% (%.2f); if intentional, edit gateAnchor and document why",
			got, gateAnchor, gateAnchor*gateTolerance)
	}
}

// gatePagesPerQuery builds the gate workload and returns its measured
// pages/query.
func gatePagesPerQuery() (float64, error) {
	env, err := NewEnv(Config{Spec: dataset.Netflix(), N: gateN, NumQueries: gateQueries, Seed: gateSeed})
	if err != nil {
		return 0, err
	}
	defer env.Close()
	b, err := env.BuildProMIPS(ProMIPSOptions{})
	if err != nil {
		return 0, err
	}
	defer b.Method.Close()
	var pages float64
	for _, q := range env.Queries {
		_, st, err := b.Method.Search(q, gateK)
		if err != nil {
			return 0, err
		}
		pages += float64(st.PageAccesses)
	}
	return pages / float64(len(env.Queries)), nil
}
