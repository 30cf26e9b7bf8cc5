package check

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"saccs/internal/core"
	"saccs/internal/corpus"
	"saccs/internal/extcache"
	"saccs/internal/lexicon"
	"saccs/internal/mat"
	"saccs/internal/obs"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// Oracles for the batched inference path: the blocked/vectorized GEMM
// kernels and batched review extraction both promise results bit-identical
// to their serial twins. These checks make the promise falsifiable on random
// inputs, from `make check` and the race-enabled test run.

// GemmBlockedOracle compares mat.MatMulInto against a literal
// ascending-k triple loop on adversarial shapes — single rows and columns,
// dimensions off every block and vector-lane multiple, and the production
// layer shapes — requiring bit equality everywhere. The blocked and
// vectorized kernels tile over output rows and columns only, never over k,
// so every output element's summation order is exactly the naive loop's.
func GemmBlockedOracle(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 257}, {1, 7, 129}, {129, 7, 1}, {3, 1, 9},
		{2, 256, 8}, {17, 5, 33}, {5, 3, 301}, {6, 31, 300},
		{13, 64, 64}, {13, 64, 128}, {4, 32, 128}, {64, 64, 64},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := mat.NewMat(m, k), mat.NewMat(k, n)
		for i := range a.Data {
			// Mixed magnitudes make floating-point reassociation visible.
			a.Data[i] = (rng.Float64()*2 - 1) * float64(int64(1)<<uint(rng.Intn(20)))
		}
		for i := range b.Data {
			b.Data[i] = (rng.Float64()*2 - 1) * float64(int64(1)<<uint(rng.Intn(20)))
		}
		got := mat.NewMat(m, n)
		mat.MatMulInto(got, a, b)
		for i := 0; i < m; i++ {
			ar := a.Row(i)
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					s += ar[kk] * b.Data[kk*n+j]
				}
				if got.Data[i*n+j] != s {
					return fmt.Errorf("gemm oracle (seed %d): shape %dx%dx%d element (%d,%d) = %v, naive %v (not bit-equal)",
						seed, m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}
	}
	return nil
}

// refTagger is the index build's float64 reference view of a trained model
// whose generation moves on during every fourth shared forward, starting
// with the second — a retrain's effect on the extraction cache (every entry
// stale, the overlapped forward's fills discarded) with the weights, and so
// the predictions, unchanged. It also records the widest forward it served.
type refTagger struct {
	tagger.ReferenceView
	bumps    atomic.Uint64
	forwards atomic.Int64
	widest   atomic.Int64
}

func (r *refTagger) Generation() uint64 { return r.ReferenceView.Generation() + r.bumps.Load() }

func (r *refTagger) PredictBatch(seqs [][]string) [][]tokenize.Label {
	if r.forwards.Add(1)%4 == 2 {
		r.bumps.Add(1)
	}
	for n := int64(len(seqs)); ; {
		w := r.widest.Load()
		if n <= w || r.widest.CompareAndSwap(w, n) {
			break
		}
	}
	return r.ReferenceView.PredictBatch(seqs)
}

// ExtractTextsOracle checks the review-extraction entry point end to end on
// a trained MiniBERT + BiLSTM-CRF model at the index build's float64
// reference precision. Texts of two to eight sentences repeat sentences
// within and across texts; the cache starts warm for a third of the
// sentences; goroutines call ExtractTexts concurrently on windows of texts
// while the tagger's generation moves on mid-run. Every result must equal
// ExtractTags applied to that text by a fresh serial extractor. The cold
// sentences outnumber one forward's capacity, so at least two forwards run
// and the generation moves at least once; some forward must also have
// decoded more than one sequence. Under -race this also proves the entry
// point free of data races.
func ExtractTextsOracle(seed int64, goroutines, nTexts int) error {
	const poolSize = 48
	cg := corpus.NewGenerator(lexicon.Restaurants(), seed, corpus.Options{})
	var pool []string
	seen := map[string]bool{}
	for tries := 0; len(pool) < poolSize && tries < 50*poolSize; tries++ {
		if s := strings.Join(cg.Sentence().Tokens, " ") + " ."; !seen[s] {
			seen[s] = true
			pool = append(pool, s)
		}
	}
	if len(pool) < poolSize {
		return fmt.Errorf("extract-texts oracle (seed %d): only %d distinct sentences", seed, len(pool))
	}
	// Text i carries pool sentences 2i and 2i+1 (so the texts cover the
	// pool), then up to three random repeats.
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, nTexts)
	for i := range texts {
		sents := []string{pool[2*i%poolSize], pool[(2*i+1)%poolSize]}
		for n := rng.Intn(4); n > 0; n-- {
			sents = append(sents, sents[rng.Intn(len(sents))], pool[rng.Intn(poolSize)])
		}
		texts[i] = strings.Join(sents, " ")
	}

	m := quantDriftModel()
	p := checkPairer()
	serial := &core.Extractor{Tagger: tagger.ReferenceView{M: m}, Pairer: p}
	want := make([][]string, nTexts)
	for i, t := range texts {
		want[i] = serial.ExtractTags(t)
	}

	rt := &refTagger{ReferenceView: tagger.ReferenceView{M: m}}
	batched := &core.Extractor{Tagger: rt, Pairer: p, Cache: extcache.New(256), Obs: obs.NewObserver()}
	for _, s := range pool[:poolSize/3] {
		batched.ExtractTags(s)
	}

	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for lo := 0; lo < nTexts; {
					hi := min(lo+1+(lo+w+pass)%5, nTexts)
					for k, tags := range batched.ExtractTexts(texts[lo:hi]) {
						if err := DiffStrings(fmt.Sprintf("ExtractTexts goroutine %d text %d (seed %d)", w, lo+k, seed), want[lo+k], tags); err != nil {
							errs <- err
							return
						}
					}
					lo = hi
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if rt.bumps.Load() == 0 || rt.widest.Load() < 2 {
		return fmt.Errorf("extract-texts oracle (seed %d): %d generation bumps, widest forward %d — want >= 1 and >= 2",
			seed, rt.bumps.Load(), rt.widest.Load())
	}
	return nil
}
