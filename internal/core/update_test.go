package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"promips/internal/errs"
)

// scaled returns s·a as a new vector.
func scaled(a []float32, s float64) []float32 {
	out := make([]float32, len(a))
	for i, v := range a {
		out[i] = float32(float64(v) * s)
	}
	return out
}

// deltaCount returns the number of points awaiting compaction — the
// mutable delta plus every frozen segment.
func deltaCount(ix *Index) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.frozenEntries + len(ix.delta)
}

func TestInsertVisibleImmediately(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	data := randData(r, 500, 12)
	ix := buildIndex(t, data, Options{Seed: 42, M: 5})

	q := randData(r, 1, 12)[0]
	// Insert a point that dominates every inner product with q.
	big := scaled(q, 10)
	id, err := ix.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	if id != 500 {
		t.Fatalf("inserted id = %d, want 500", id)
	}
	res, _, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != id {
		t.Fatalf("dominant inserted point not returned: got %d", res[0].ID)
	}
	if ix.LiveCount() != 501 || deltaCount(ix) != 1 {
		t.Fatalf("counts = %d live, %d delta", ix.LiveCount(), deltaCount(ix))
	}
}

func TestInsertDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ix := buildIndex(t, randData(r, 100, 8), Options{Seed: 44, M: 4})
	if _, err := ix.Insert(make([]float32, 7)); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	for _, bad := range nonFinite {
		if _, err := ix.Insert(withComponent(make([]float32, 8), 2, bad)); err == nil {
			t.Fatalf("expected error for an insert with a %v component", bad)
		}
	}
	if deltaCount(ix) != 0 || ix.JournalLen() != 0 {
		t.Fatalf("refused inserts left %d delta entries and %d journal records", deltaCount(ix), ix.JournalLen())
	}
}

func TestDeleteExcludesFromResults(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	data := randData(r, 400, 10)
	ix := buildIndex(t, data, Options{Seed: 46, M: 4})
	q := randData(r, 1, 10)[0]
	res, _, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := res[0].ID
	if !ix.Delete(top) {
		t.Fatal("delete of live id returned false")
	}
	if ix.Delete(top) {
		t.Fatal("double delete returned true")
	}
	if ix.Delete(9999) {
		t.Fatal("delete of unknown id returned true")
	}
	res2, _, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res2 {
		if rr.ID == top {
			t.Fatal("deleted point still returned")
		}
	}
	// Exact must agree.
	ex, err := ix.Exact(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range ex {
		if rr.ID == top {
			t.Fatal("deleted point returned by Exact")
		}
	}
}

func TestDeleteInsertedPoint(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	data := randData(r, 200, 8)
	ix := buildIndex(t, data, Options{Seed: 48, M: 4})
	q := randData(r, 1, 8)[0]
	id, _ := ix.Insert(scaled(q, 10))
	if !ix.Delete(id) {
		t.Fatal("delete of delta point failed")
	}
	res, _, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID == id {
		t.Fatal("deleted delta point still returned")
	}
}

func TestGuaranteeHoldsUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	data := randData(r, 800, 12)
	ix := buildIndex(t, data, Options{Seed: 50, C: 0.9, P: 0.9, M: 5})
	// Churn: delete 100 random points, insert 150 fresh ones.
	for i := 0; i < 100; i++ {
		ix.Delete(uint32(r.Intn(800)))
	}
	fresh := randData(r, 150, 12)
	for _, v := range fresh {
		if _, err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ok, trials := 0, 25
	for trial := 0; trial < trials; trial++ {
		q := randData(r, 1, 12)[0]
		res, _, err := ix.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ix.Exact(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ex[0].IP <= 0 || res[0].IP >= 0.9*ex[0].IP {
			ok++
		}
	}
	if frac := float64(ok) / float64(trials); frac < 0.8 {
		t.Fatalf("guarantee under churn: success rate %.2f", frac)
	}
}

func TestCompact(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	data := randData(r, 300, 10)
	ix := buildIndex(t, data, Options{Seed: 52, M: 4})
	q := randData(r, 1, 10)[0]

	ix.Delete(5)
	ix.Delete(7)
	insID, _ := ix.Insert(scaled(q, 8))

	before, err := ix.Exact(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}

	oldIDs, err := ix.Compact(context.Background(), filepath.Join(t.TempDir(), "compacted"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 299 { // 300 − 2 deleted + 1 inserted
		t.Fatalf("compacted size = %d, want 299", ix.Len())
	}
	if len(oldIDs) != 299 {
		t.Fatalf("old-id mapping has %d entries", len(oldIDs))
	}
	if deltaCount(ix) != 0 {
		t.Fatalf("delta not folded: %d entries remain", deltaCount(ix))
	}
	// The dominant inserted point must survive compaction under some new id.
	after, err := ix.Exact(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if before[0].IP != after[0].IP {
		t.Fatalf("top IP changed across compaction: %v vs %v", before[0].IP, after[0].IP)
	}
	if oldIDs[after[0].ID] != insID {
		t.Fatalf("old-id mapping broken: new %d -> old %d, want %d", after[0].ID, oldIDs[after[0].ID], insID)
	}
	// Deleted points must be gone.
	for _, old := range oldIDs {
		if old == 5 || old == 7 {
			t.Fatal("deleted id survived compaction")
		}
	}
}

// Updates that land between Compact's snapshot and its swap must not be
// lost: here they are simulated by compacting, then immediately verifying
// that post-compaction inserts and deletes behave on the swapped-in
// generation (ids restart densely, the delta accepts new points).
func TestCompactThenUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	data := randData(r, 200, 8)
	ix := buildIndex(t, data, Options{Seed: 56, M: 4})
	q := randData(r, 1, 8)[0]

	ix.Delete(3)
	if _, err := ix.Compact(context.Background(), filepath.Join(t.TempDir(), "gen1"), nil); err != nil {
		t.Fatal(err)
	}
	if got := ix.LiveCount(); got != 199 {
		t.Fatalf("live after compact = %d", got)
	}
	id, err := ix.Insert(scaled(q, 12))
	if err != nil {
		t.Fatal(err)
	}
	if id != 199 {
		t.Fatalf("post-compact insert id = %d, want 199", id)
	}
	res, _, err := ix.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != id {
		t.Fatalf("dominant post-compact insert not returned: got %d", res[0].ID)
	}
	// A second compaction folds the new delta too.
	remap, err := ix.Compact(context.Background(), filepath.Join(t.TempDir(), "gen2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 200 || deltaCount(ix) != 0 {
		t.Fatalf("second compact: remap=%d delta=%d", len(remap), deltaCount(ix))
	}
}

func TestCompactCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	data := randData(r, 100, 6)
	ix := buildIndex(t, data, Options{Seed: 58, M: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Compact(ctx, t.TempDir(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compact returned %v", err)
	}
	// The index must be untouched and fully usable.
	if ix.Len() != 100 {
		t.Fatalf("len changed after cancelled compact: %d", ix.Len())
	}
	if _, _, err := ix.Search(randData(r, 1, 6)[0], 1); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEmptyFails(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	data := randData(r, 10, 6)
	ix := buildIndex(t, data, Options{Seed: 54, M: 4})
	for id := uint32(0); id < 10; id++ {
		ix.Delete(id)
	}
	if _, err := ix.Compact(context.Background(), t.TempDir(), nil); !errors.Is(err, errs.ErrEmptyIndex) {
		t.Fatalf("compacting fully-deleted index returned %v, want ErrEmptyIndex", err)
	}
	if _, _, err := ix.Search(randData(r, 1, 6)[0], 1); !errors.Is(err, errs.ErrEmptyIndex) {
		t.Fatalf("searching fully-deleted index returned %v, want ErrEmptyIndex", err)
	}
}

// TestExactCancelled: Exact honors context cancellation — a pre-cancelled
// context returns ctx.Err() without scanning, and the index stays usable.
func TestExactCancelled(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	data := randData(r, 100, 6)
	ix := buildIndex(t, data, Options{Seed: 60, M: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Exact(ctx, data[0], 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exact returned %v, want context.Canceled", err)
	}
	if res, err := ix.Exact(context.Background(), data[0], 3); err != nil || len(res) != 3 {
		t.Fatalf("exact after cancelled call: res=%d err=%v", len(res), err)
	}
}
