package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	const rate, dur = 350.0, 10 * time.Second
	a, b := schedule(7, rate, dur), schedule(7, rate, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, rate, dur)) {
		t.Fatal("different seeds, same schedule")
	}
	for i := range a {
		if a[i] < 0 || a[i] >= dur || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("due[%d] = %v: outside the phase or out of order", i, a[i])
		}
	}
	// One arrival in every interval of 1/rate.
	if want := int(rate * dur.Seconds()); len(a) < want-1 || len(a) > want {
		t.Fatalf("%d arrivals, want %d", len(a), want)
	}
	for i := range a {
		lo, hi := a[i].Seconds()*rate-float64(i), a[i].Seconds()*rate-float64(i+1)
		if lo < -1e-6 || hi > 1e-6 {
			t.Fatalf("due[%d] = %v is outside interval %d", i, a[i], i)
		}
	}
}

func TestOperationsAreAPureFunctionOfSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, phase := range []uint64{phaseWarmup, phaseClosed, phaseOpen} {
			differs := false
			for i := 0; i < 500; i++ {
				if w.opAt(3, phase, i) != w.opAt(3, phase, i) {
					t.Fatalf("%s: op %d of phase %d is not deterministic", w.Name, i, phase)
				}
				differs = differs || w.opAt(3, phase, i) != w.opAt(4, phase, i)
			}
			if !differs {
				t.Fatalf("%s phase %d: seeds 3 and 4 give the same operations", w.Name, phase)
			}
		}
	}
}

// The interleaving: exactly every 10th operation is the workload's special
// one, from a seeded offset; the quality set and the ladder never insert.
func TestInterleaving(t *testing.T) {
	count := func(w *workload, phase uint64, n int) (c [numOpKinds]int) {
		for i := 0; i < n; i++ {
			c[w.opAt(11, phase, i).kind]++
		}
		return c
	}
	mixed, cold, warm, batch := findWorkload("mixed-updates"), findWorkload("cold-large"), findWorkload("warm-small"), findWorkload("batch")
	if c := count(mixed, phaseOpen, 1000); c[opInsert] != 100 || c[opSearch] != 900 {
		t.Errorf("mixed-updates open phase: %v, want 100 inserts and 900 searches", c)
	}
	for _, phase := range []uint64{phaseQuality, phaseLadder} {
		if c := count(mixed, phase, 1000); c[opInsert] != 0 {
			t.Errorf("mixed-updates phase %d inserts %d times; it must only read", phase, c[opInsert])
		}
	}
	if c := count(cold, phaseClosed, 1000); c[opHard] != 100 || c[opSearch] != 900 {
		t.Errorf("cold-large: %v, want 100 out-of-sample and 900 member queries", c)
	}
	if c := count(warm, phaseOpen, 1000); c[opSearch] != 1000 {
		t.Errorf("warm-small: %v, want member queries only", c)
	}
	if c := count(batch, phaseOpen, 1000); c[opBatch] != 1000 {
		t.Errorf("batch: %v, want batches only", c)
	}
	// The special operations are evenly spaced, not clumped.
	last := -1
	for i := 0; i < 200; i++ {
		if mixed.opAt(11, phaseOpen, i).kind == opInsert {
			if last >= 0 && i-last != mixed.InsertEvery {
				t.Fatalf("inserts at %d and %d, want every %d", last, i, mixed.InsertEvery)
			}
			last = i
		}
	}
}

func TestInputsAreAPureFunctionOfSeed(t *testing.T) {
	w := workload{Name: "t", N: 64, Shards: 1, Preload: 8, InsertEvery: 10, HardEvery: 10}
	a, b, c := makeInputs(&w, 5), makeInputs(&w, 5), makeInputs(&w, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different inputs")
	}
	if !reflect.DeepEqual(a.data, c.data) || !reflect.DeepEqual(a.hard, c.hard) {
		t.Fatal("the corpus must not depend on the seed")
	}
	if reflect.DeepEqual(a.fresh, c.fresh) {
		t.Fatal("different seeds, same insert order")
	}
	if len(a.data) != 64 || len(a.fresh) != 8+freshSpare || len(a.hard) != hardPool || len(a.data[0]) != dim {
		t.Fatalf("sizes: %d data, %d fresh, %d hard, dim %d", len(a.data), len(a.fresh), len(a.hard), len(a.data[0]))
	}
	o := op{kind: opBatch, u: 99}
	if !reflect.DeepEqual(a.batch(o, 16), b.batch(o, 16)) {
		t.Fatal("same batch operation, different members")
	}
}
