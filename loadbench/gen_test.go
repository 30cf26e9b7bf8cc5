package main

import (
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"saccs/internal/tokenize"
)

var testEnts = []string{"e000", "e001", "e002"}

// planRequests lists a run's requests in the order it sends them, for a
// staircase that visits the given rates: pool, warm-up, then per slot the
// fixed-rate chunk and its appends and the rung trial and its appends, then
// the tail. The fixed-size phases are also returned on their own.
func planRequests(p *plan, rates []float64) (all, fixedSize []Request) {
	for _, u := range p.pool {
		all = append(all, Request{Kind: "query", Text: u})
	}
	all = append(all, p.warm...)
	fixedSize = append(fixedSize, all...)
	for i := 0; i < p.slots; i++ {
		all = append(all, p.fixed[i]...)
		all = append(all, p.fixedApp[i]...)
		all = append(all, p.trial(rates[i%len(rates)])...)
		all = append(all, p.trialApp[i]...)
		fixedSize = append(fixedSize, p.fixed[i]...)
		fixedSize = append(fixedSize, p.fixedApp[i]...)
		fixedSize = append(fixedSize, p.trialApp[i]...)
	}
	all = append(all, p.tail...)
	fixedSize = append(fixedSize, p.tail...)
	return all, fixedSize
}

func digest(t *testing.T, reqs []Request) [32]byte {
	t.Helper()
	b, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// streamDigest hashes the serialized request stream of a 14 s run whose
// staircase visits the same rungs.
func streamDigest(t *testing.T, w Workload, seed int64) [32]byte {
	t.Helper()
	all, _ := planRequests(newPlan(w, seed, 14, testEnts), w.Ladder()[15:20])
	return digest(t, all)
}

func testWorkloads(t *testing.T) map[string]Workload {
	t.Helper()
	wls, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) < 2 {
		t.Fatalf("want at least two workloads, have %d", len(wls))
	}
	return wls
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for name, w := range testWorkloads(t) {
		if streamDigest(t, w, 7) != streamDigest(t, w, 7) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if streamDigest(t, w, 7) == streamDigest(t, w, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

// The fixed-rate chunks and the appends do not depend on the rungs the
// staircase visits, so a commit and its parent send them alike whatever
// their knees.
func TestPlanIndependentOfLadderPath(t *testing.T) {
	for name, w := range testWorkloads(t) {
		l := w.Ladder()
		slow, fast := newPlan(w, 9, 14, testEnts), newPlan(w, 9, 14, testEnts)
		slowAll, slowFixed := planRequests(slow, l[:3])
		fastAll, fastFixed := planRequests(fast, l[len(l)-3:])
		if len(fastAll) <= len(slowAll) {
			t.Fatalf("%s: the fast ladder sent %d requests, the slow one %d", name, len(fastAll), len(slowAll))
		}
		if digest(t, slowFixed) != digest(t, fastFixed) {
			t.Errorf("%s: fixed-rate chunks or appends changed with the ladder's path", name)
		}
		if !w.ReadOnly() && len(slow.trialApp[0]) == 0 {
			t.Errorf("%s: no appends beside the rung trials", name)
		}
	}
}

// A cold run never repeats a sentence, in any of its phases, so every
// sentence misses the extraction cache (which is keyed by the sentence's
// token sequence).
func TestColdStreamSentencesUnique(t *testing.T) {
	w := testWorkloads(t)["cold-chat"]
	all, _ := planRequests(newPlan(w, 3, 14, testEnts), w.Ladder()[25:])
	seen := map[string]bool{}
	for _, r := range all {
		if r.Kind != "query" {
			continue
		}
		for _, s := range tokenize.Sentences(r.Text) {
			key := strings.Join(tokenize.Words(s), "\x1f")
			if seen[key] {
				t.Fatalf("sentence %q repeated", s)
			}
			seen[key] = true
		}
	}
}

func TestStreamShape(t *testing.T) {
	w := testWorkloads(t)["warm-browse"]
	st := newStream(w, 5, []string{"e000", "e001"})
	if len(st.Pool()) != w.Pool {
		t.Fatalf("pool has %d utterances, want %d", len(st.Pool()), w.Pool)
	}
	inPool := map[string]bool{}
	for _, u := range st.Pool() {
		inPool[u] = true
		if n := len(tokenize.Sentences(u)); n < 1 || n > 3 {
			t.Errorf("utterance %q has %d sentences, want 1-3", u, n)
		}
	}
	for _, r := range st.Take("query", 500) {
		if !inPool[r.Text] {
			t.Fatalf("warm-browse query %q is not from the pool", r.Text)
		}
	}
	for _, r := range st.Take("append", 20) {
		if r.Kind != "append" || (r.EntityID != "e000" && r.EntityID != "e001") || r.Text == "" {
			t.Fatalf("bad append %+v", r)
		}
	}
}

func TestLadderFixed(t *testing.T) {
	for name, w := range testWorkloads(t) {
		l := w.Ladder()
		if len(l) != ladderRungs || l[0] <= 0 {
			t.Fatalf("%s: ladder %v", name, l)
		}
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("%s: ladder not increasing at %d: %v", name, i, l)
			}
		}
	}
}
