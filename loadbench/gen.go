package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"saccs/internal/lexicon"
	"saccs/internal/tokenize"
)

// Request is one generated call against the server: a query utterance or a
// streamed review.
type Request struct {
	Kind     string `json:"kind"` // "query" or "append"
	Text     string `json:"text"`
	EntityID string `json:"entity_id,omitempty"`
}

// The slot keywords the objective filter understands, and words that carry
// neither a slot nor a lexicon feature. Off-lexicon aspects and opinions make
// tags the index has never seen, so ranking takes the similarity fallback.
var (
	cuisines     = []string{"italian", "french", "japanese", "mexican", "indian", "chinese"}
	locations    = []string{"montreal", "melbourne", "lyon", "paris", "toronto", "sydney"}
	offAspects   = []string{"patio", "restrooms", "parking", "music", "lighting", "playlist", "terrace", "bread basket", "espresso", "desserts"}
	offOpinions  = []string{"spotless", "lively", "moody", "chill", "buttery", "crunchy", "retro", "quirky", "sunny", "cheerful"}
	occasions    = []string{"tonight", "tomorrow", "for lunch", "for brunch", "for a date", "for my birthday", "after work", "this weekend", "with my parents", "with friends", "for a business dinner", "before the show"}
	queryOpeners = []string{"i want a place with", "looking for somewhere with", "find me a restaurant with", "any spot with", "we need", "show me places with", "recommend a restaurant with", "somewhere with"}
	reviewSubj   = []string{"the", "our", "their"}
	reviewVerbs  = []string{"was", "were", "felt", "seemed", "looked"}
)

// generator makes the benchmark's inputs from one seed: every utterance and
// review the program receives is text produced here.
type generator struct {
	rng *rand.Rand
	lex *lexicon.Domain
	u   *emitted
}

// emitted is the set of sentences a run's generators have produced, shared
// by them so that no sentence repeats across phases.
type emitted struct {
	seen map[string]bool // token-sequence keys (extraction cache keys)
	next int
}

func newGenerator(seed int64, u *emitted) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), lex: lexicon.Restaurants(), u: u}
}

// phaseSeed derives the seed of one phase's generator from the run's seed.
func phaseSeed(seed int64, phase string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, phase)
	return int64(h.Sum64())
}

func (g *generator) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

// phrase returns one "<opinion> <aspect>" pair; with probability
// offLexicon, one of the two words comes from outside the lexicon.
func (g *generator) phrase() string {
	f := g.lex.Features[g.rng.Intn(len(g.lex.Features))]
	op, asp := g.pick(f.PosOps), g.pick(f.AspectSyns)
	if g.rng.Float64() < offLexicon {
		if g.rng.Intn(2) == 0 {
			op = g.pick(offOpinions)
		} else {
			asp = g.pick(offAspects)
		}
	}
	return op + " " + asp
}

func (g *generator) querySentence() string {
	var b strings.Builder
	b.WriteString(g.pick(queryOpeners))
	b.WriteString(" " + g.phrase())
	if g.rng.Intn(3) == 0 {
		b.WriteString(" and " + g.phrase())
	}
	if g.rng.Intn(3) == 0 {
		b.WriteString(" " + g.pick(occasions))
	}
	return b.String()
}

// unique draws sentences from draw until one whose token sequence was never
// emitted before, so no two generated sentences share an extraction cache
// entry. When the draw keeps colliding it appends a counter, which always
// yields a fresh key.
func (g *generator) unique(draw func() string) string {
	for tries := 0; ; tries++ {
		s := draw()
		if tries >= 8 {
			g.u.next++
			s += fmt.Sprintf(" table %d", g.u.next)
		}
		key := strings.Join(tokenize.Words(s), "\x1f")
		if !g.u.seen[key] {
			g.u.seen[key] = true
			return s
		}
	}
}

// utterance returns a 1–3 sentence query; slotShare of them name a cuisine
// and/or a city.
func (g *generator) utterance() string {
	n := 1 + g.rng.Intn(3)
	sents := make([]string, n)
	for i := range sents {
		sents[i] = g.unique(g.querySentence)
	}
	if g.rng.Float64() < slotShare {
		var slot string
		switch g.rng.Intn(3) {
		case 0:
			slot = "an " + g.pick(cuisines) + " restaurant"
		case 1:
			slot = "a restaurant in " + g.pick(locations)
		default:
			slot = "an " + g.pick(cuisines) + " restaurant in " + g.pick(locations)
		}
		sents[0] = g.unique(func() string { return "i want " + slot + " with " + g.phrase() })
	}
	return strings.Join(sents, ". ") + "."
}

// review returns a 1–3 sentence review in the style of the indexed corpus.
func (g *generator) review() string {
	n := 1 + g.rng.Intn(3)
	sents := make([]string, n)
	for i := range sents {
		sents[i] = g.unique(func() string {
			f := g.lex.Features[g.rng.Intn(len(g.lex.Features))]
			op, asp := g.pick(f.PosOps), g.pick(f.AspectSyns)
			if g.rng.Float64() < offLexicon {
				op = g.pick(offOpinions)
			}
			if g.rng.Intn(4) == 0 {
				op = g.pick(f.NegOps)
			}
			return g.pick(reviewSubj) + " " + asp + " " + g.pick(reviewVerbs) + " " + op
		})
	}
	return strings.Join(sents, ". ") + "."
}

// Stream is an ordered request sequence of one run: the same seed gives the
// same requests at the same positions whatever the server does.
type Stream struct {
	w    Workload
	seed int64
	g    *generator
	pool []string // warm utterance pool (Zipf-drawn)
	zipf *rand.Zipf
	ents []string
}

// newStream builds the request source for workload w from seed, with its
// warm pool. Entity IDs name the appended-to entities (existing entities of
// the served world). Each phase of a run draws from its own Stream, made by
// phase.
func newStream(w Workload, seed int64, ents []string) *Stream {
	s := &Stream{w: w, seed: seed, g: newGenerator(phaseSeed(seed, "pool"), &emitted{seen: map[string]bool{}}), ents: ents}
	for len(s.pool) < w.Pool {
		s.pool = append(s.pool, s.g.utterance())
	}
	if len(s.pool) > 0 {
		s.zipf = rand.NewZipf(s.g.rng, zipfS, zipfV, uint64(len(s.pool)-1))
	}
	return s
}

// phase returns the Stream of one phase of the run. It draws from its own
// generator, seeded from (seed, name), so the requests it sends do not
// depend on how many another phase took. It shares the warm pool and the
// emitted sentences, so no sentence repeats across phases; a sentence a
// phase draws that another already emitted is redrawn, so phases must be
// drawn in a fixed order (see newPlan).
func (s *Stream) phase(name string) *Stream {
	p := *s
	p.g = newGenerator(phaseSeed(s.seed, name), s.g.u)
	if len(p.pool) > 0 {
		p.zipf = rand.NewZipf(p.g.rng, zipfS, zipfV, uint64(len(p.pool)-1))
	}
	return &p
}

// Pool returns the warm utterance pool (empty for a cold workload).
func (s *Stream) Pool() []string { return s.pool }

// Query returns the next query: a fresh utterance with probability
// 1-WarmShare, otherwise a draw from the warm pool where rank k has
// probability ∝ (zipfV+k)^-zipfS (Zipf–Mandelbrot).
func (s *Stream) Query() Request {
	if len(s.pool) > 0 && s.g.rng.Float64() < s.w.WarmShare {
		return Request{Kind: "query", Text: s.pool[s.zipf.Uint64()]}
	}
	return Request{Kind: "query", Text: s.g.utterance()}
}

// Append returns the next streamed review for an existing entity.
func (s *Stream) Append() Request {
	return Request{Kind: "append", EntityID: s.ents[s.g.rng.Intn(len(s.ents))], Text: s.g.review()}
}

// Take returns the next n requests of the given kind.
func (s *Stream) Take(kind string, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		if kind == "append" {
			out[i] = s.Append()
		} else {
			out[i] = s.Query()
		}
	}
	return out
}
