package core

import (
	"context"
	"math/rand"
	"testing"
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

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected error opening empty dir")
	}
}
