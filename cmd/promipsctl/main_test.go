package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"promips"
	"promips/dataset"
	"promips/shard"
)

// stdoutOf runs fn and returns what it printed to os.Stdout.
func stdoutOf(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatalf("%v\n%s", err, printed)
	}
	return printed
}

// The CLI's subcommand helpers are exercised directly: write a dataset
// file, build an index, query it and print stats — the full promipsctl
// round trip without spawning a process.
func TestCLIBuildQueryStatsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "vectors.pds")
	idxDir := filepath.Join(dir, "idx")

	r := rand.New(rand.NewSource(1))
	data := make([][]float32, 300)
	for i := range data {
		v := make([]float32, 16)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	if err := dataset.WriteFile(dataPath, data); err != nil {
		t.Fatal(err)
	}

	if err := runBuild([]string{"-data", dataPath, "-dir", idxDir, "-m", "5", "-seed", "2"}); err != nil {
		t.Fatalf("build: %v", err)
	}
	// With no -shards the build is still the one layout everything serves.
	if !shard.IsSharded(idxDir) {
		t.Fatal("default build did not write the sharded layout")
	}
	if err := runQuery([]string{"-dir", idxDir, "-data", dataPath, "-k", "5", "-queries", "2"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := runCompact([]string{"-dir", idxDir}); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := runQuery([]string{"-dir", idxDir, "-data", dataPath, "-k", "5", "-queries", "2", "-c", "0.8", "-p", "0.7"}); err != nil {
		t.Fatalf("query after compact: %v", err)
	}
	if out := stdoutOf(t, func() error { return runStats([]string{"-dir", idxDir}) }); !strings.Contains(out, "shards: 1 ") {
		t.Fatalf("stats of a default build does not report one shard:\n%s", out)
	}
}

// TestCLIRecover drives the recovery diagnostics: updates acknowledged
// into the journal but never saved must survive a process "crash" (close
// without save), show up in recover's report, and -commit must fold them
// in so the journal empties.
func TestCLIRecover(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "vectors.pds")
	idxDir := filepath.Join(dir, "idx")

	r := rand.New(rand.NewSource(3))
	data := make([][]float32, 200)
	for i := range data {
		v := make([]float32, 12)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	if err := dataset.WriteFile(dataPath, data); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-data", dataPath, "-dir", idxDir, "-m", "5", "-seed", "4"}); err != nil {
		t.Fatalf("build: %v", err)
	}

	// Crash-sim: updates journaled, never saved, fds dropped.
	ix, err := shard.Open(idxDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(data[0]); err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(7) {
		t.Fatal("delete")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	if err := runRecover([]string{"-dir", idxDir}); err != nil {
		t.Fatalf("recover (dry): %v", err)
	}
	if err := runRecover([]string{"-dir", idxDir, "-commit"}); err != nil {
		t.Fatalf("recover -commit: %v", err)
	}
	re, err := shard.Open(idxDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Replayed != 0 {
		t.Fatalf("after commit, open still replays %d", rec.Replayed)
	}
	if re.JournalLen() != 0 {
		t.Fatalf("after commit, journal holds %d", re.JournalLen())
	}
	if re.LiveCount() != 200 {
		t.Fatalf("LiveCount = %d, want 200 (one insert, one delete)", re.LiveCount())
	}
	if err := runStats([]string{"-dir", idxDir}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestCLIMissingFlags(t *testing.T) {
	if err := runBuild([]string{}); err == nil {
		t.Fatal("build without flags should fail")
	}
	if err := runQuery([]string{}); err == nil {
		t.Fatal("query without flags should fail")
	}
	if err := runCompact([]string{}); err == nil {
		t.Fatal("compact without flags should fail")
	}
	if err := runStats([]string{}); err == nil {
		t.Fatal("stats without flags should fail")
	}
	if err := runRecover([]string{}); err == nil {
		t.Fatal("recover without flags should fail")
	}
}

func TestCLIBadDataFile(t *testing.T) {
	dir := t.TempDir()
	if err := runBuild([]string{"-data", filepath.Join(dir, "missing.pds"), "-dir", dir}); err == nil {
		t.Fatal("build with missing data file should fail")
	}
}

// TestCLIBareIndexRefused: every subcommand that opens an index refuses a
// directory saved without the shard layer with the error that says how to
// rebuild it, not a generic "no SHARDS manifest".
func TestCLIBareIndexRefused(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	data := make([][]float32, 50)
	for i := range data {
		data[i] = []float32{float32(r.NormFloat64()), float32(r.NormFloat64()), float32(r.NormFloat64())}
	}
	dataPath := filepath.Join(dir, "vectors.pds")
	if err := dataset.WriteFile(dataPath, data); err != nil {
		t.Fatal(err)
	}
	idxDir := t.TempDir()
	ix, err := promips.Build(data, promips.Options{Dir: idxDir, Seed: 6, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	for name, run := range map[string]func() error{
		"query":   func() error { return runQuery([]string{"-dir", idxDir, "-data", dataPath}) },
		"compact": func() error { return runCompact([]string{"-dir", idxDir}) },
		"stats":   func() error { return runStats([]string{"-dir", idxDir}) },
		"recover": func() error { return runRecover([]string{"-dir", idxDir}) },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "bare promips index") || !strings.Contains(err.Error(), "promipsctl build") {
			t.Errorf("%s on a bare index = %v, want the rebuild-with-promipsctl error", name, err)
		}
	}
}
