// Package mips defines the types shared by every MIPS method in this
// repository — ProMIPS and the three baselines it is evaluated against —
// so the benchmark harness can drive them uniformly.
package mips

// Result is one returned point. IP is the method's belief about the inner
// product (exact for methods that verify candidates, approximate for the
// PQ baseline); the evaluation harness recomputes exact inner products for
// its accuracy metrics.
type Result struct {
	ID uint32
	IP float64
}

// QueryStats is the per-query work report common to all methods.
type QueryStats struct {
	// PageAccesses counts distinct disk pages touched during the query —
	// the paper's Page Access metric, identical accounting for every
	// method: every method accumulates it in a per-query pager.IOStats.
	PageAccesses int64
	// Candidates is the number of points the method examined/verified.
	Candidates int
}

// Method is a built, queryable MIPS index.
type Method interface {
	// Name identifies the method in benchmark output ("ProMIPS",
	// "H2-ALSH", "Range-LSH", "PQ-Based").
	Name() string
	// Search returns the top-k (approximate) MIP points, best first.
	Search(q []float32, k int) ([]Result, QueryStats, error)
	// IndexSizeBytes is the on-disk + in-memory index footprint (Fig 4a).
	IndexSizeBytes() int64
	// Close releases any page files.
	Close() error
}
