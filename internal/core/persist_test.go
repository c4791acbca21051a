package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"promips/internal/pq"
	"promips/internal/vec"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	data := randData(r, 700, 14)
	dir := t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 32, M: 5, C: 0.9, P: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	q := randData(r, 1, 14)[0]
	want, _, err := ix.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 700 || re.Dim() != 14 || re.M() != 5 {
		t.Fatalf("reloaded metadata = %d %d %d", re.Len(), re.Dim(), re.M())
	}
	if re.Options().P != 0.6 {
		t.Fatalf("reloaded p = %v", re.Options().P)
	}
	got, _, err := re.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count changed: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d changed after reload: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestPersistedRowsByID: the index holds ‖o‖² and the sketch rows in layout
// order, but what Save writes is indexed by id, as it always was — every
// persisted ‖o‖² is that of the point with its index, every persisted sketch
// row that point's encoding — and Save → Open → Save writes both metas
// byte for byte again.
func TestPersistedRowsByID(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	data := randData(r, 900, 24)
	dir := t.TempDir()
	ix, err := Build(context.Background(), data, dir, Options{Seed: 34, M: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(dir); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ix.idist.Layout(), identity(len(data))) {
		t.Fatal("the layout is the identity: the test cannot tell the two orders apart")
	}
	ix.Close()
	metas := func() [2][]byte {
		t.Helper()
		var out [2][]byte
		for i, name := range []string{"promips.meta", "idist.meta"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	saved := metas()
	m, err := decodeCoreMeta(bytes.NewReader(saved[0]))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := pq.UnmarshalSketch(m.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	q := data[5]
	lut, normQ := sk.NewLUT(q, nil), math.Sqrt(vec.Norm2Sq(q))
	codes := make([]byte, sk.Subspaces())
	for id, o := range data {
		if m.Norm2Sq[id] != vec.Norm2Sq(o) {
			t.Fatalf("persisted ‖o‖² %d is %v, the point's is %v", id, m.Norm2Sq[id], vec.Norm2Sq(o))
		}
		resid := sk.Encode(o, codes)
		if got, want := sk.Bound(uint32(id), lut, normQ), sk.BoundCodes(codes, resid, lut, normQ); got != want {
			t.Fatalf("persisted sketch row %d bounds %v, the point's encoding %v", id, got, want)
		}
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.Save(dir); err != nil {
		t.Fatal(err)
	}
	if again := metas(); !bytes.Equal(again[0], saved[0]) || !bytes.Equal(again[1], saved[1]) {
		t.Fatal("Save after Open wrote different metas")
	}
}

func identity(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected error opening empty dir")
	}
}
