// Command saccs-index builds a subjective tag inverted index over the
// synthetic review world and dumps it (Table 1 at full size): every tag, its
// entities, and their degrees of truth. Useful for inspecting what the
// extractor + similarity checker + indexer pipeline (Fig. 1) produces.
//
// With -stream the world's reviews are fed one by one through the streaming
// ingest tier (WAL + delta builds + compaction) instead of one batch build —
// the two paths produce identical indexes, which this command makes easy to
// eyeball. Add -wal-dir to make the stream durable and replayable: run once,
// kill it, run again and watch recovery continue from the log.
//
// Usage:
//
//	saccs-index [-tags "good food,nice staff"] [-gold] [-top 5] [-metrics-addr :9090]
//	saccs-index -stream [-wal-dir /tmp/saccs-wal] [-publish-every 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"saccs/internal/core"
	"saccs/internal/corpus"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/sim"
	"saccs/internal/tagger"
	"saccs/internal/yelp"
)

func main() {
	tagsFlag := flag.String("tags", "", "comma-separated tags to index (default: the 18 canonical feature tags)")
	gold := flag.Bool("gold", false, "use gold review annotations instead of the neural extractor")
	top := flag.Int("top", 5, "entities shown per tag")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address (e.g. :9090)")
	stream := flag.Bool("stream", false, "feed reviews through the WAL-backed streaming ingester instead of one batch build")
	walDir := flag.String("wal-dir", "", "durable WAL directory for -stream (empty: in-process only, no durability)")
	publishEvery := flag.Int("publish-every", 64, "publish a fresh snapshot every N streamed reviews (-stream only)")
	precisionFlag := flag.String("precision", "float64", "review decode arithmetic for the build: float64 (the library's indexing default), mixed, or int8")
	flag.Parse()
	precision, err := nn.ParsePrecision(*precisionFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saccs-index: %v\n", err)
		os.Exit(1)
	}

	o := obs.NewObserver()
	o.SetTelemetry(obs.NewTelemetry(obs.TelemetryConfig{Metrics: o.Metrics}))
	if *metricsAddr != "" {
		srv, err := obs.ServeObserver(*metricsAddr, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof\n", srv.Addr, srv.Addr)
	}

	world := yelp.Generate(yelp.FastConfig())
	var ex *core.Extractor
	var src core.ReviewTagSource
	if *gold {
		src = core.GoldSource{}
		tg := core.NewGoldTagger(nil)
		if *stream {
			// The streaming path extracts from review text, so the gold
			// tagger needs the world's annotated sentences to look up.
			var sentences []corpus.Sentence
			for _, e := range world.Entities {
				for _, r := range e.Reviews {
					sentences = append(sentences, r.Sentences...)
				}
			}
			tg = core.NewGoldTagger(sentences)
		}
		ex = &core.Extractor{Tagger: tg, Pairer: pairing.WordDistance{}}
	} else {
		fmt.Println("training the neural extractor...")
		data := datasets.S1(datasets.Fast)
		encOpts := experiments.DefaultEncoderOpts(datasets.Fast)
		encOpts.Obs = o
		enc := experiments.BuildEncoder(encOpts, world.Domain, nil)
		cfg := tagger.DefaultConfig()
		cfg.Adversarial = true
		cfg.Epsilon = 0.2
		cfg.Precision = precision
		tg := tagger.New(enc, cfg)
		tg.Obs = o
		tg.Train(data.Train)
		ex = &core.Extractor{
			Tagger: tg,
			Pairer: pairing.Tree{Lex: parse.DomainLexicon(world.Domain), FromOpinions: true},
			// Reviews quote the same sentences; the cache decodes each once
			// per build.
			Cache: extcache.New(4096),
		}
		src = core.NeuralSource{E: ex}
	}

	svc := core.NewService(world, ex, nil, core.DefaultConfig())
	svc.SetObserver(o)

	tags := svc.CanonicalTags()
	if *tagsFlag != "" {
		tags = nil
		for _, t := range strings.Split(*tagsFlag, ",") {
			tags = append(tags, strings.TrimSpace(t))
		}
	}

	if *stream {
		ix := streamWorld(o, world, ex, tags, *walDir, *publishEvery)
		dumpIndex(ix, world, *top)
		return
	}

	fmt.Println("extracting review tags...")
	svc.BuildEntityTags(src)
	svc.IndexTags(tags)
	dumpIndex(svc.Index, world, *top)
}

// streamWorld feeds every review through the WAL-backed ingester, review by
// review, the way a live service would — durable append, delta builds every
// publish-every reviews, background compaction — and returns the quiescent
// index. If walDir already holds a previous run's log, the world is recovered
// from it instead of re-streamed (appends would double-count the reviews).
func streamWorld(o *obs.Observer, world *yelp.World, ex *core.Extractor, tags []string, walDir string, publishEvery int) *index.Index {
	ix := index.New(sim.NewConceptual(), core.DefaultConfig().ThetaIndex)
	ix.SetObserver(o)
	start := time.Now()
	ing, err := ingest.Open(ingest.Config{
		Dir:             walDir,
		PublishEvery:    publishEvery,
		PublishInterval: -1,
		Obs:             o,
	}, ix, tags, nil, ex.ExtractTexts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ingest open: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := ing.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ingest close: %v\n", err)
		}
	}()

	recovered := 0
	for _, e := range ing.State() {
		recovered += e.ReviewCount
	}
	if recovered > 0 {
		fmt.Printf("recovered %d reviews from %s in %v — skipping re-append\n",
			recovered, walDir, time.Since(start).Round(time.Millisecond))
		return ix
	}

	fmt.Println("streaming review appends...")
	ctx := context.Background()
	appended := 0
	appendStart := time.Now()
	for _, e := range world.Entities {
		for _, r := range e.Reviews {
			if _, err := ing.Append(ctx, e.ID, r.Text); err != nil {
				fmt.Fprintf(os.Stderr, "append %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			appended++
		}
	}
	if err := ing.Flush(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ingest flush: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(appendStart)
	fmt.Printf("streamed %d reviews in %v (%.0f appends/s), published seq %d, pending %d\n",
		appended, elapsed.Round(time.Millisecond),
		float64(appended)/elapsed.Seconds(), ing.Published(), ing.Pending())
	return ix
}

func dumpIndex(ix *index.Index, world *yelp.World, top int) {
	fmt.Printf("\nsubjective tag index (%d tags, %d entities, %d reviews)\n\n",
		ix.Len(), len(world.Entities), world.ReviewCount())
	for _, tag := range ix.Tags() {
		entries := ix.Lookup(tag)
		fmt.Printf("%-22s %3d entities:", tag, len(entries))
		for i, e := range entries {
			if i >= top {
				fmt.Printf(" …")
				break
			}
			fmt.Printf("  %s (%.2f)", world.Entity(e.EntityID).Name, e.Degree)
		}
		fmt.Println()
	}
}
