package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"saccs"
	"saccs/internal/nn"
	"saccs/internal/search"
	"saccs/internal/server"
	"saccs/internal/tokenize"
)

// Replay sizes of the traced run: queries through the hand-assembled
// pipeline (every other one untraced, for the overhead comparison), then
// warm queries and appends through the served client in-process.
const (
	traceQueries  = 400
	clientQueries = 100
	clientAppends = 50
)

// spanNames are the layer calls under a traced request's root ("query" or
// "append"), in facade order.
var spanNames = []string{
	"search.parse", "shard.pin", "core.extract", "extcache.get", "tagger.decode", "pairing.pairs",
	"extcache.put", "index.has", "saccs.objective", "shard.topk", "ingest.append",
}

// traceResult is what the server child hands back to the load generator.
type traceResult struct {
	Metrics  map[string]metric `json:"metrics"`
	Probes   []probeAnswer     `json:"probes"`
	Problems []string          `json:"problems"`
}

// probeAnswer is what the equivalence check compares: tags and top-K IDs.
type probeAnswer struct {
	Tags []string `json:"tags"`
	IDs  []string `json:"ids"`
}

func readTraceResult(path string) (*traceResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr traceResult
	if err := json.Unmarshal(b, &tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tr, nil
}

// query runs one utterance through the hand-assembled pipeline in the order
// QueryCtx calls the layers: parse → pin → extract → has → objective → rank.
// It returns the tags, the ranked answer, the objective candidates and the
// token sequences that missed the extraction cache.
func (p *handPipeline) query(tr *tracer, root int, u string) ([]string, []search.Scored, []string, [][]string, error) {
	sp := tr.begin(root, "search.parse")
	in := search.ParseUtterance(u)
	tr.end(sp)
	sp = tr.begin(root, "shard.pin")
	view := p.router.Pin()
	tr.end(sp)
	sp = tr.begin(root, "core.extract")
	tags, missed := p.extract(tr, sp, u)
	tr.end(sp)
	sp = tr.begin(root, "index.has")
	for _, t := range tags {
		view.Has(t)
	}
	tr.end(sp)
	sp = tr.begin(root, "saccs.objective")
	cands := p.objective(in.Slots)
	tr.end(sp)
	sp = tr.begin(root, "shard.topk")
	ranked, err := view.TopK(context.Background(), nil, cands, tags, thetaFilter, topK)
	tr.end(sp)
	return tags, ranked, cands, missed, err
}

// extract is core.Extractor's per-sentence path made of its public parts:
// cache lookup, the tagger decode at serving precision, span pairing, tag
// rendering and the cache fill.
func (p *handPipeline) extract(tr *tracer, parent int, text string) ([]string, [][]string) {
	var tags, missed [][]string
	for _, sent := range tokenize.Sentences(text) {
		toks := tokenize.Words(sent)
		gen := p.tg.Generation()
		key := strings.Join(toks, "\x1f")
		sp := tr.begin(parent, "extcache.get")
		st, ok := p.cache.Get(gen, key)
		tr.end(sp)
		if !ok {
			sp = tr.begin(parent, "tagger.decode")
			labels := p.tg.PredictAt(toks, nn.Mixed)
			tr.end(sp)
			sp = tr.begin(parent, "pairing.pairs")
			var aspects, opinions []tokenize.Span
			for _, s := range tokenize.Spans(labels) {
				if s.Kind == tokenize.AspectSpan {
					aspects = append(aspects, s)
				} else {
					opinions = append(opinions, s)
				}
			}
			pairs := p.pairer.Pairs(toks, aspects, opinions)
			tr.end(sp)
			seen := map[string]bool{}
			st = nil
			for _, pr := range pairs {
				tag := pr.Opinion.Text(toks) + " " + pr.Aspect.Text(toks)
				if !seen[tag] {
					seen[tag] = true
					st = append(st, tag)
				}
			}
			sp = tr.begin(parent, "extcache.put")
			p.cache.Put(gen, key, st)
			tr.end(sp)
			missed = append(missed, toks)
		}
		tags = append(tags, st)
	}
	var out []string
	seen := map[string]bool{}
	for _, st := range tags {
		for _, t := range st {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out, missed
}

// samples collects per-call durations of one measured function.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }

func (s samples) p50us(name string) float64 {
	return float64(quantile(s[name], 0.5)) / 1e3
}

// runTraced is the traced run. It replays the workload's requests for seed
// in-process, through the hand-assembled pipeline with a span per layer
// call, and through the served client and HTTP handler without the network.
// It writes the per-layer metrics, the probe answers and any failed check
// to out, and the spans beside it.
func runTraced(client *saccs.Client, srv *server.Server, p *handPipeline, name string, seed int64, out string) error {
	wls, err := loadWorkloads()
	if err != nil {
		return err
	}
	w, ok := wls[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	st := newStream(w, seed, entityIDs()).phase("trace")
	res := traceResult{Metrics: map[string]metric{}}
	ctx := context.Background()

	// The load generator warmed the server with the pool; warm the pipeline alike.
	for _, u := range st.Pool() {
		if _, _, _, _, err := p.query(nil, 0, u); err != nil {
			return err
		}
	}
	for _, u := range probeUtterances {
		tags, ranked, _, _, err := p.query(nil, 0, u)
		if err != nil {
			return err
		}
		res.Probes = append(res.Probes, probeAnswer{Tags: tags, IDs: search.RankedIDs(ranked)})
	}

	queries := st.Take("query", traceQueries)
	reqs := queries
	if !w.ReadOnly() {
		// Interleave appends at the workload's append:query ratio.
		k := appendQPS / w.QueryQPS
		appends := st.Take("append", int(traceQueries*k))
		reqs = nil
		sent := 0
		for i, q := range queries {
			reqs = append(reqs, q)
			for ; sent < int(float64(i+1)*k); sent++ {
				reqs = append(reqs, appends[sent])
			}
		}
	}

	// The replay runs on one goroutine locked to its thread, so that the
	// thread's CPU clock splits each span into work and wait.
	runtime.LockOSThread()
	tr := newTracer()
	probe := samples{}
	tokens := 0
	var arenaA nn.Arena
	nq := 0
	for _, r := range reqs {
		if r.Kind == "append" {
			root := tr.request("append")
			sp := tr.begin(root, "ingest.append")
			_, err := p.ing.Append(ctx, r.EntityID, r.Text)
			tr.end(sp)
			tr.end(root)
			if err != nil {
				return err
			}
			continue
		}
		nq++
		if nq%2 == 0 {
			t0 := time.Now()
			if _, _, _, _, err := p.query(nil, 0, r.Text); err != nil {
				return err
			}
			probe.add("untraced", time.Since(t0))
			continue
		}
		root := tr.request("query")
		tags, _, cands, missed, err := p.query(tr, root, r.Text)
		tr.end(root)
		if err != nil {
			return err
		}
		// Component probes, outside the request's spans: the encoder entry,
		// the emission stack and the float64 reference decode of each of the
		// query's sentences, cached or not, so a layer's per-call cost is
		// known on every workload. tagger.tokens counts what the request
		// itself decoded.
		for _, toks := range missed {
			tokens += len(toks)
		}
		for _, sent := range tokenize.Sentences(r.Text) {
			toks := tokenize.Words(sent)
			t0 := time.Now()
			p.tg.PredictAt(toks, nn.Mixed)
			dec := time.Since(t0)
			t0 = time.Now()
			p.tg.EmissionsAt(toks, nn.Mixed)
			emit := time.Since(t0)
			arenaA.Reset()
			t0 = time.Now()
			p.enc.InferQuantBatchTokensArena([][]string{toks}, &arenaA, nn.Mixed)
			probe.add("bert.encode", time.Since(t0))
			t0 = time.Now()
			p.tg.PredictAt(toks, nn.Float64)
			probe.add("tagger.decode_ref", time.Since(t0))
			probe.add("tagger.decode", dec)
			probe.add("tagger.emit", emit)
			probe.add("tagger.crf", max(0, dec-emit))
		}
		t0 := time.Now()
		rk := &search.Ranker{Index: p.router.Shard(0).Current(), ThetaFilter: thetaFilter, Agg: search.MeanAgg}
		if _, err := rk.RankCtx(ctx, nil, cands, tags); err != nil {
			return err
		}
		probe.add("search.rank", time.Since(t0))
	}
	runtime.UnlockOSThread()

	// Served client and HTTP handler, in-process, on warm inputs: each
	// utterance is asked once untimed, so these times isolate the facade
	// and transport from the decode. The facade's glue is its call time
	// minus what its own stage histograms recorded for the chain inside it.
	stageSum := func() (d time.Duration) {
		s := client.Stats()
		for _, n := range []string{"parse", "tagger.decode", "pairing.pairs", "objective", "rank"} {
			d += s.Histograms["stage."+n].Sum
		}
		return d
	}
	h := srv.Handler()
	for _, q := range queries[:clientQueries] {
		if _, err := client.QueryCtx(ctx, q.Text); err != nil {
			return err
		}
		before := stageSum()
		t0 := time.Now()
		if _, err := client.QueryCtx(ctx, q.Text); err != nil {
			return err
		}
		qd := time.Since(t0)
		chain := stageSum() - before
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(string(body(q))))
		t0 = time.Now()
		h.ServeHTTP(rec, req)
		hd := time.Since(t0)
		if rec.Code != http.StatusOK {
			res.Problems = append(res.Problems, fmt.Sprintf("in-process handler: HTTP %d", rec.Code))
		}
		probe.add("saccs.query", qd)
		probe.add("server.handler", hd)
		probe.add("server.transport", max(0, hd-qd))
		probe.add("saccs.glue", max(0, qd-chain))
	}
	for _, a := range st.Take("append", clientAppends) {
		t0 := time.Now()
		if err := client.AppendReviewCtx(ctx, a.EntityID, a.Text); err != nil {
			return err
		}
		probe.add("saccs.append", time.Since(t0))
	}

	if bad := treeErrors(tr.spans); len(bad) > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d requests whose span self times do not add up to the root", len(bad)))
	}
	layers, roots := summarize(tr.spans)
	m := res.Metrics
	us := func(v float64) metric { return metric{v, "us"} }
	for _, n := range []string{"server.handler", "server.transport", "saccs.query", "saccs.append", "saccs.glue",
		"search.rank", "bert.encode", "tagger.decode", "tagger.emit", "tagger.crf", "tagger.decode_ref"} {
		m[n+"_us"] = us(probe.p50us(n))
	}
	for metricName, span := range map[string]string{
		"search.parse_us": "search.parse", "shard.pin_us": "shard.pin", "shard.topk_us": "shard.topk",
		"pairing.pairs_us": "pairing.pairs",
	} {
		m[metricName] = us(float64(layers[span].SelfP50) / 1e3)
	}
	var extract []time.Duration
	for _, s := range tr.spans {
		if s.Name == "core.extract" {
			extract = append(extract, time.Duration(s.dur()))
		}
	}
	m["core.extract_us"] = us(float64(quantile(extract, 0.5)) / 1e3)
	m["tagger.tokens"] = metric{float64(tokens), "count"}
	for _, n := range spanNames {
		l := layers[n]
		m["trace."+n+".count"] = metric{float64(l.Count), "count"}
		m["trace."+n+".self_p50_us"] = us(float64(l.SelfP50) / 1e3)
		m["trace."+n+".self_p99_us"] = us(float64(l.SelfP99) / 1e3)
		m["trace."+n+".self_share"] = metric{l.SelfShare, "ratio"}
		m["trace."+n+".wait_us"] = us(float64(l.WaitPerRequest) / 1e3)
	}
	var rootQ []time.Duration
	for _, s := range tr.spans {
		if s.Name == "query" {
			rootQ = append(rootQ, time.Duration(s.dur()))
		}
	}
	tracedP50, untracedP50 := float64(quantile(rootQ, 0.5))/1e3, probe.p50us("untraced")
	m["trace.requests"] = metric{float64(len(roots)), "count"}
	m["trace.root_p50_us"] = us(tracedP50)
	m["trace.untraced_p50_us"] = us(untracedP50)
	m["trace.overhead_pct"] = metric{100 * (ratio(tracedP50, untracedP50) - 1), "%"}

	if err := writeSpans(filepath.Join(filepath.Dir(out), "trace.spans.jsonl"), tr.spans); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
