package core

import (
	"strings"

	"saccs/internal/obs"
	"saccs/internal/tokenize"
)

// Review extraction in batches. The indexer knows every sentence of a
// review set before it decodes any of them, so it can hand them to the
// tagger together: one padded MiniBERT + BiLSTM-CRF forward over many
// sequences (tagger.Model.PredictBatch) shares the GEMMs that a serial loop
// would run once per sentence. Batched decoding is bit-identical to serial
// Predict — the batch kernels replay the serial arithmetic per sequence
// (internal/nn, internal/bert differential tests) — so batching is
// invisible in results, goldens and cache contents. The query path decodes
// one utterance at a time and stays serial (ExtractTagsCtx).

// BatchTagger is a Tagger that can decode several sequences in one shared
// forward pass, each result bit-identical to a solo Predict; tagger.Model
// and tagger.ReferenceView satisfy it.
type BatchTagger interface {
	Tagger
	PredictBatch(seqs [][]string) [][]tokenize.Label
}

// maxForward caps the sequences one shared forward decodes. Past it the
// per-sequence saving flattens while the forward's arena, and with it the
// process's peak memory, keeps growing.
const maxForward = 8

// ExtractTexts extracts subjective tags from several texts at once — the
// review-indexing entry point. Result i equals ExtractTags(texts[i]): the
// tags of each sentence in sentence order, deduplicated per text.
//
// Sentences served by the cache are not decoded. The remaining sentences of
// all texts, duplicates folded into one slot, decode together in the fewest
// balanced BatchTagger forwards of at most maxForward sequences (a Tagger
// that cannot batch decodes them one by one). Each decoded sentence then
// runs the serial path's pairing tail and generation-checked cache fill.
func (e *Extractor) ExtractTexts(texts []string) [][]string {
	tg := e.cacheGen()
	type pending struct {
		tokens []string
		key    string
		tags   []string
	}
	var misses []pending
	slot := map[string]int{} // sentence key -> index in misses
	perText := make([][][]string, len(texts))
	type ref struct{ text, sent, miss int }
	var refs []ref
	for i, text := range texts {
		sentences := tokenize.Sentences(text)
		perText[i] = make([][]string, len(sentences))
		for j, sent := range sentences {
			tokens := tokenize.Words(sent)
			key := strings.Join(tokens, "\x1f")
			if tg != nil {
				if tags, hit := e.cacheHit(nil, tg.Generation(), tokens, key); hit {
					perText[i][j] = tags
					continue
				}
			}
			k, dup := slot[key]
			if !dup {
				k = len(misses)
				slot[key] = k
				misses = append(misses, pending{tokens: tokens, key: key})
			}
			refs = append(refs, ref{i, j, k})
		}
	}

	if len(misses) > 0 {
		// Split into the fewest forwards of at most maxForward, balanced so
		// no forward is left with a tiny remainder (9 sequences decode as
		// 5+4, not 8+1).
		chunks := (len(misses) + maxForward - 1) / maxForward
		per := (len(misses) + chunks - 1) / chunks
		seqs := make([][]string, 0, per)
		for off := 0; off < len(misses); off += per {
			end := min(off+per, len(misses))
			seqs = seqs[:0]
			for _, m := range misses[off:end] {
				seqs = append(seqs, m.tokens)
			}
			var gen uint64
			if tg != nil {
				gen = tg.Generation()
			}
			st := obs.BeginStage(e.Obs, nil, "tagger.decode")
			labels := e.predictBatch(seqs)
			st.End()
			// Fills are valid only if no retrain overlapped the shared
			// decode — the same bracket the serial path puts around Predict.
			genOK := tg != nil && tg.Generation() == gen
			for k := off; k < end; k++ {
				m := &misses[k]
				m.tags = e.finishExtract(nil, m.tokens, labels[k-off], gen, genOK, m.key)
			}
		}
		for _, r := range refs {
			perText[r.text][r.sent] = misses[r.miss].tags
		}
	}

	out := make([][]string, len(texts))
	for i, sents := range perText {
		out[i] = dedupTags(sents)
	}
	return out
}

// predictBatch decodes seqs in one shared forward when the tagger supports
// it, and one sequence at a time otherwise.
func (e *Extractor) predictBatch(seqs [][]string) [][]tokenize.Label {
	if bt, ok := e.Tagger.(BatchTagger); ok {
		return bt.PredictBatch(seqs)
	}
	out := make([][]tokenize.Label, len(seqs))
	for i, s := range seqs {
		out[i] = e.Tagger.Predict(s)
	}
	return out
}
