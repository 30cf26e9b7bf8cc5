package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	ds := make([]time.Duration, 200)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i + 1) // 200..1, unsorted
	}
	if got := quantile(ds, 0.5); got != 100 {
		t.Errorf("p50 = %d, want 100", got)
	}
	if got := quantile(ds, 0.99); got != 198 {
		t.Errorf("p99 = %d, want 198", got)
	}
	if got := beyond(ds, 0.99); got != 2 {
		t.Errorf("beyond p99 = %d, want 2", got)
	}
}

func TestStaircaseMajorityRung(t *testing.T) {
	ladder := []float64{100, 110, 120, 130, 140, 150, 160}
	sc := newStaircase(ladder, 1)
	// The knee lies between 130 and 140; one trial at 140 got lucky.
	outcome := map[int][]bool{1: {true}, 3: {true, true, true}, 4: {false, false, true, false}, 5: {false, false}}
	var visited []int
	for i := 0; i < 10; i++ {
		k := sc.next()
		visited = append(visited, k)
		res := outcome[k]
		if len(res) == 0 {
			t.Fatalf("trial %d at unexpected rung %d (visited %v)", i, k, visited)
		}
		sc.record(res[0], false, ladder[k]-float64(len(res)))
		outcome[k] = res[1:]
	}
	want := []int{1, 3, 5, 4, 3, 4, 3, 4, 5, 4}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
	// 140 met once in four trials, 130 three times in three.
	// The achieved rate is the mean over 130's passing trials (127, 128, 129).
	if rung, achieved := sc.result(); rung != 130 || achieved != 128 {
		t.Errorf("result %v at %v q/s, want 130 at 128", rung, achieved)
	}
	// A ladder never met reports 0; the walk stops at the ends.
	sc = newStaircase(ladder, 0)
	sc.record(false, false, 90)
	if rung, achieved := sc.result(); sc.next() != 0 || rung != 0 || achieved != 0 {
		t.Errorf("all missed: at rung %d, result %v at %v", sc.next(), rung, achieved)
	}
}

// A void trial neither meets nor misses its rung; the walk steps down.
func TestStaircaseVoidTrial(t *testing.T) {
	ladder := []float64{100, 110, 120, 130}
	sc := newStaircase(ladder, 2)
	sc.record(true, false, 119)
	sc.record(false, true, 0)   // at 130: void
	sc.record(true, false, 121) // at 120, after the step down
	if sc.next() != 3 || sc.voids != 1 || sc.trials != 3 {
		t.Fatalf("at rung %d with %d voids in %d trials, want rung 3, 1 void, 3 trials", sc.next(), sc.voids, sc.trials)
	}
	if rung, achieved := sc.result(); rung != 120 || achieved != 120 {
		t.Errorf("result %v at %v q/s, want 120 at 120 (the void trial at 130 counts for nothing)", rung, achieved)
	}
}
