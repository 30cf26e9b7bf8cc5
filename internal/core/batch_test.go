package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"saccs/internal/extcache"
	"saccs/internal/pairing"
	"saccs/internal/tokenize"
)

// stubBatchTagger is a deterministic BatchTagger with test hooks: it labels
// the first two tokens of a sentence opinion/aspect (so every distinct
// sentence yields the distinct tag "tok0 tok1"), counts serial and batched
// decodes, and can run a hook inside PredictBatch (to model a retrain
// overlapping the shared decode).
type stubBatchTagger struct {
	gen     atomic.Uint64
	serial  atomic.Int64
	batches struct {
		sync.Mutex
		sizes []int
	}
	onDecode func() // when non-nil, runs inside PredictBatch
}

func (s *stubBatchTagger) label(tokens []string) []tokenize.Label {
	out := make([]tokenize.Label, len(tokens))
	if len(tokens) >= 2 {
		out[0], out[1] = tokenize.BOP, tokenize.BAS
	}
	return out
}

func (s *stubBatchTagger) Predict(tokens []string) []tokenize.Label {
	s.serial.Add(1)
	return s.label(tokens)
}

func (s *stubBatchTagger) PredictBatch(seqs [][]string) [][]tokenize.Label {
	if s.onDecode != nil {
		s.onDecode()
	}
	s.batches.Lock()
	s.batches.sizes = append(s.batches.sizes, len(seqs))
	s.batches.Unlock()
	out := make([][]tokenize.Label, len(seqs))
	for i, seq := range seqs {
		out[i] = s.label(seq)
	}
	return out
}

func (s *stubBatchTagger) Generation() uint64 { return s.gen.Load() }

func (s *stubBatchTagger) batchSizes() []int {
	s.batches.Lock()
	defer s.batches.Unlock()
	return append([]int(nil), s.batches.sizes...)
}

// allPairs pairs every aspect with every opinion — enough structure for the
// stub labels to round-trip into "opinion aspect" tags.
type allPairs struct{}

func (allPairs) Pairs(tokens []string, aspects, opinions []tokenize.Span) []pairing.Pair {
	var out []pairing.Pair
	for _, a := range aspects {
		for _, o := range opinions {
			out = append(out, pairing.Pair{Aspect: a, Opinion: o})
		}
	}
	return out
}

// batchExtractor returns a caching extractor over the stub tagger.
func batchExtractor(st *stubBatchTagger) *Extractor {
	return &Extractor{Tagger: st, Pairer: allPairs{}, Cache: extcache.New(64)}
}

// TestBatchedExtractMatchesSerial checks ExtractTexts against ExtractTags
// applied per text, over multi-sentence texts with repeats inside and across
// texts, and checks the misses decode in balanced forwards of at most
// maxForward sequences.
func TestBatchedExtractMatchesSerial(t *testing.T) {
	st := &stubBatchTagger{}
	e := batchExtractor(st)
	serial := &Extractor{Tagger: &stubBatchTagger{}, Pairer: allPairs{}}

	texts := make([]string, 17)
	for i := range texts {
		texts[i] = fmt.Sprintf("lovely meal%d here. shiny meal%d there. lovely meal%d here.", i, (i+1)%len(texts), i)
	}
	got := e.ExtractTexts(texts)
	if len(got) != len(texts) {
		t.Fatalf("%d results for %d texts", len(got), len(texts))
	}
	for i, txt := range texts {
		if want := serial.ExtractTags(txt); fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Fatalf("text %d: batched %v, serial %v", i, got[i], want)
		}
	}
	// 34 distinct sentences: five balanced forwards, not 8+8+8+8+2.
	if sizes := st.batchSizes(); fmt.Sprint(sizes) != "[7 7 7 7 6]" {
		t.Fatalf("forward sizes = %v, want [7 7 7 7 6]", sizes)
	}
	if n := st.serial.Load(); n != 0 {
		t.Fatalf("%d serial decodes; a BatchTagger must decode in shared forwards", n)
	}

	// A second call is served from the cache and decodes nothing.
	again := e.ExtractTexts(texts)
	if fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("cached call differs: %v, first %v", again, got)
	}
	if sizes := st.batchSizes(); len(sizes) != 5 {
		t.Fatalf("cached call decoded again: forward sizes %v", sizes)
	}
}

// TestBatchGenSwapDiscardsFills pins the retrain-overlap contract: a
// generation bump during the shared decode (a Train starting mid-forward)
// discards every cache fill from that forward, exactly as the serial path
// discards a decode a Train overlapped.
func TestBatchGenSwapDiscardsFills(t *testing.T) {
	st := &stubBatchTagger{}
	st.onDecode = func() { st.gen.Add(1) }
	e := batchExtractor(st)

	texts := []string{"delicious food here", "nice staff there"}
	got := e.ExtractTexts(texts)
	if fmt.Sprint(got) != "[[delicious food] [nice staff]]" {
		t.Fatalf("tags = %v despite gen bump (results must still be served)", got)
	}
	if e.Cache.Len() != 0 {
		t.Fatalf("cache has %d entries; a mid-forward generation bump must discard fills", e.Cache.Len())
	}

	// With a stable generation the same extraction is cached.
	st.onDecode = nil
	e.ExtractTexts(texts)
	if e.Cache.Len() != 2 {
		t.Fatalf("cache has %d entries after stable-generation decode, want 2", e.Cache.Len())
	}
}

// TestBatchDedupSharesSlot checks duplicate sentences occupy one forward
// slot and still answer every text.
func TestBatchDedupSharesSlot(t *testing.T) {
	st := &stubBatchTagger{}
	e := batchExtractor(st)
	e.Cache = nil // dedup must not depend on the cache

	texts := make([]string, 6)
	for i := range texts {
		texts[i] = "delicious food here. delicious food here."
	}
	for i, r := range e.ExtractTexts(texts) {
		if fmt.Sprint(r) != "[delicious food]" {
			t.Fatalf("text %d got %v", i, r)
		}
	}
	if sizes := st.batchSizes(); fmt.Sprint(sizes) != "[1]" {
		t.Fatalf("forward sizes = %v, want [1] (duplicates share one slot)", sizes)
	}
}

// TestExtractTextsSerialTagger checks a Tagger without shared forwards
// decodes each miss on its own and still matches ExtractTags.
func TestExtractTextsSerialTagger(t *testing.T) {
	st := &stubBatchTagger{}
	e := &Extractor{Tagger: struct{ Tagger }{st}, Pairer: allPairs{}}
	texts := []string{"delicious food here. nice staff there.", "", "nice staff there."}
	got := e.ExtractTexts(texts)
	if fmt.Sprint(got) != "[[delicious food nice staff] [] [nice staff]]" {
		t.Fatalf("tags = %v", got)
	}
	if n := st.serial.Load(); n != 2 || len(st.batchSizes()) != 0 {
		t.Fatalf("serial=%d forwards=%v, want 2 serial decodes", n, st.batchSizes())
	}
}
