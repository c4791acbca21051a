package idistance

import (
	"context"
	"math/rand"
	"testing"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	pts := randPoints(r, 900, 6, 10)
	dir := t.TempDir()
	idx, err := Build(context.Background(), pts, dir, Config{Kp: 4, Nkey: 15, Ksp: 6, Seed: 31, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Save(dir); err != nil {
		t.Fatal(err)
	}
	q := randPoints(r, 1, 6, 10)[0]
	want, err := idx.RangeSearch(context.Background(), q, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantProj, err := idx.Projected(42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 900 || re.M() != 6 {
		t.Fatalf("reloaded dims = (%d,%d)", re.Len(), re.M())
	}
	got, err := re.RangeSearch(context.Background(), q, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("range search changed after reload: %d vs %d candidates", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidate %d changed after reload", i)
		}
	}
	gotProj, err := re.Projected(42, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotProj {
		if gotProj[i] != wantProj[i] {
			t.Fatal("projected fetch changed after reload")
		}
	}
	if len(re.Layout()) != 900 {
		t.Fatalf("layout lost: %d entries", len(re.Layout()))
	}
}

func TestOpenMissingMeta(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("expected error opening empty dir")
	}
}
