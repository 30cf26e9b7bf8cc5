package tagger

import (
	"math/rand"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// BenchmarkPredict measures one cold decode at production model dimensions
// (bert.DefaultConfig + tagger.DefaultConfig) at each precision: float64 is
// the review-indexing reference, mixed the utterance decode the facade
// serves (its `tagger.decode` stage), int8 the fully quantized mode. Run
// with -cpuprofile to see the kernel breakdown.
func BenchmarkPredict(b *testing.B) {
	m, tokens := benchModel()
	for _, p := range []nn.Precision{nn.Float64, nn.Mixed, nn.Int8} {
		b.Run(p.String(), func(b *testing.B) {
			m.PredictAt(tokens, p) // warm the arenas at this precision
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictAt(tokens, p)
			}
		})
	}
}

func benchModel() (*Model, []string) {
	words := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "is", "friendly"}
	v := tokenize.NewVocab()
	v.AddAll(words)
	enc := bert.New(rand.New(rand.NewSource(7)), bert.DefaultConfig(), v)
	m := New(enc, DefaultConfig())
	tokens := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff"}
	for i := 0; i < 3; i++ {
		m.Predict(tokens)
	}
	return m, tokens
}
