package main

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saccs"
	"saccs/internal/bert"
	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/search"
	"saccs/internal/shard"
	"saccs/internal/sim"
	"saccs/internal/tagger"
)

// The DefaultConfig values saccs.New wires into the pipeline it builds.
const (
	thetaIndex  = 0.55
	thetaFilter = 0.45
	topK        = 10
	cacheSize   = 4096
)

// handPipeline is the serving pipeline assembled from the same public
// constructors saccs.New uses, so the traced run can call each layer
// directly. The traced run checks that it answers the probes exactly as the
// served client does.
type handPipeline struct {
	enc    *bert.Model
	tg     *tagger.Model
	pairer pairing.Tree
	cache  *extcache.Cache // the serving extractor's cache
	router *shard.Router
	ing    *ingest.Ingester
	ents   map[string]saccs.Entity
	ids    []string // sorted entity IDs
}

func buildHandPipeline(ents []saccs.Entity, walDir string) (*handPipeline, error) {
	domain := lexicon.Restaurants()
	data := datasets.S1(datasets.Fast)
	o := obs.NewObserver()
	encOpts := experiments.DefaultEncoderOpts(datasets.Fast)
	encOpts.Obs = o
	tokens := make([][]string, len(data.Train))
	for i, ex := range data.Train {
		tokens[i] = ex.Tokens
	}
	enc := experiments.BuildEncoder(encOpts, domain, tokens)
	tcfg := tagger.DefaultConfig()
	tcfg.Adversarial = true
	tcfg.Epsilon = 0.2
	tcfg.Precision = nn.Mixed
	tg := tagger.New(enc, tcfg)
	tg.Obs = o
	tg.Train(data.Train)

	p := &handPipeline{
		enc:    enc,
		tg:     tg,
		pairer: pairing.Tree{Lex: parse.DomainLexicon(domain), FromOpinions: true},
		cache:  extcache.New(cacheSize),
		ents:   map[string]saccs.Entity{},
	}
	p.cache.SetObserver(o)
	refCache := extcache.New(cacheSize)
	refCache.SetObserver(o)
	ref := &core.Extractor{Tagger: tagger.ReferenceView{M: tg}, Pairer: p.pairer, Cache: refCache, Obs: o}

	// Index the world the way IndexEntities does: float64 reference
	// extraction per review, fanned out over GOMAXPROCS workers.
	reviews := make([]index.EntityReviews, len(ents))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ents) {
					return
				}
				er := index.EntityReviews{EntityID: ents[i].ID, ReviewCount: len(ents[i].Reviews)}
				for _, r := range ents[i].Reviews {
					er.Tags = append(er.Tags, ref.ExtractTags(r)...)
				}
				reviews[i] = er
			}
		}()
	}
	wg.Wait()
	for _, e := range ents {
		p.ents[e.ID] = e
		p.ids = append(p.ids, e.ID)
	}
	sort.Strings(p.ids)

	memo := sim.NewMemo(sim.NewConceptual())
	p.router = shard.New(1, search.MeanAgg, func() *index.Index { return index.NewWithMemo(memo, thetaIndex) })
	p.router.SetObserver(o)
	var tags []string
	for _, f := range domain.Features {
		tags = append(tags, strings.ToLower(f.Name))
	}
	sort.Strings(tags)
	if err := p.router.BuildCtx(context.Background(), tags, reviews); err != nil {
		return nil, err
	}
	extract := func(texts []string) [][]string {
		out := make([][]string, len(texts))
		for i, t := range texts {
			out[i] = ref.ExtractTags(t)
		}
		return out
	}
	ing, err := ingest.Open(ingest.Config{
		Dir:             walDir,
		PublishEvery:    64,
		PublishInterval: 250 * time.Millisecond,
		Obs:             o,
	}, p.router.Shard(0), p.router.Shard(0).Tags(), reviews, extract)
	if err != nil {
		return nil, err
	}
	p.ing = ing
	return p, nil
}

func (p *handPipeline) close() { _ = p.ing.Close() } // the hand WAL is scratch

// objective plays the facade's §3.2 objective filter: entities matching the
// utterance's cuisine and city slots, in ID order.
func (p *handPipeline) objective(slots map[string]string) []string {
	var out []string
	for _, id := range p.ids {
		e := p.ents[id]
		if v, ok := slots["cuisine"]; ok && !strings.EqualFold(e.Cuisine, v) {
			continue
		}
		if v, ok := slots["location"]; ok && !strings.EqualFold(e.City, v) {
			continue
		}
		out = append(out, id)
	}
	return out
}
