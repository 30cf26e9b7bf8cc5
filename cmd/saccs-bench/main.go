// Command saccs-bench regenerates every table and figure of the paper's
// evaluation (§6). By default it runs at fast (CI) scale; -scale paper uses
// the paper's corpus sizes (280 entities / ~7000 reviews, Table 3 dataset
// sizes, 100 queries per difficulty, 15 training epochs).
//
// The "stages" section benchmarks every query-path stage in isolation
// (parse, tagger Viterbi decode, pairing, full extraction, index build,
// exact and similarity-fallback resolution, ranking, and the end-to-end
// query) and writes the results both as a human-readable table and as
// machine-readable JSON (-bench-out, default BENCH.json).
//
// The "parallel" section measures cold-path end-to-end query throughput at
// one goroutine and at -parallel goroutines over the same pipeline: every
// query is a distinct multi-sentence utterance (no extraction cache), so the
// decode work is real. The passes alternate for several rounds and each row
// reports its configuration's median pass. With -qps-guard the process exits
// nonzero if the multi-goroutine median is below the single-goroutine
// median — the CI smoke gate against the parallel-scaling regression (more
// goroutines, fewer queries). The section also compares the public facade
// sharded: the same cold workload at 1 shard / 1 goroutine and at -parallel
// shards / -parallel goroutines, and the guard extends to it — sharded
// concurrent QPS must not fall below the serial single-shard baseline, so
// scatter-gather fan-out can never silently eat the parallel speedup.
//
// The "contention" section measures what a writer costs the
// readers: -readers goroutines query continuously for a readers-only
// baseline pass, then again while one goroutine rebuilds the index in a loop
// publishing new snapshot generations the whole time. With pinned immutable
// snapshots the reader QPS of the two passes should be close; a large gap
// would mean readers are blocking on the writer. All sections append to the
// same BENCH.json.
//
// The "cache" section measures the generation-keyed extraction cache: cold
// (uncached) vs warm (cache pre-warmed) per-sentence extraction latency, the
// warm pass's hit ratio, and end-to-end repeated-utterance query QPS with
// the cache off and on. Each QPS pass runs for -parallel-dur.
//
// The "latency" section runs a closed-loop end-to-end query pass with
// request telemetry attached and reports the latency distribution — p50,
// p90, p99, p999 from the high-resolution log-linear histogram — alongside
// the pass's QPS, so BENCH.json tracks tail latency and not just throughput.
//
// The "ingest" section measures the streaming tier on the real filesystem:
// durable append throughput under FsyncAlways (each ack is an fsync) and
// FsyncBatch (sync at publication), append and publish-lag quantiles from
// the ingest histograms, and the crash-recovery figure — how fast a reopened
// ingester replays the log it just wrote.
//
// The "serve" section benchmarks the HTTP tier end to end: for each shard
// count (1, 2, 4) it trains a facade client, starts a real saccs-server on
// loopback, and drives /v1/query with an open-loop load generator — requests
// fire at fixed arrival rates regardless of how fast earlier ones complete,
// and latency is measured from each request's scheduled arrival time, so
// queueing delay under overload is charged to the server, never hidden by a
// slow client (no coordinated omission). The rate ladder is calibrated once
// against the 1-shard server and reused for every shard count, so the
// max-sustained figures (highest offered rate with achieved/offered >= 0.95
// and zero errors) are directly comparable.
//
// Usage:
//
//	saccs-bench [-scale fast|paper]
//	            [-only table2,table3,table4,table5,figures,stages,quant,parallel,contention,cache,latency,ingest,serve]
//	            [-parallel N] [-parallel-dur 2s] [-qps-guard] [-quant-guard]
//	            [-readers N] [-contention-dur 2s]
//	            [-bench-out BENCH.json] [-metrics-addr :9090]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saccs"
	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/search"
	"saccs/internal/server"
	"saccs/internal/sim"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

func main() {
	scaleFlag := flag.String("scale", "fast", "experiment scale: fast or paper")
	only := flag.String("only", "", "comma-separated subset: table2,table3,table4,table5,figures,stages,quant,parallel,contention,cache,latency,ingest,serve")
	benchOut := flag.String("bench-out", "BENCH.json", "file for the machine-readable benchmark results (empty disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :9090)")
	parallelN := flag.Int("parallel", runtime.GOMAXPROCS(0), "goroutines for the parallel query benchmark")
	qpsGuard := flag.Bool("qps-guard", false, "exit nonzero if the parallel section's median multi-goroutine QPS falls below its median single-goroutine QPS")
	quantGuard := flag.Bool("quant-guard", false, "exit nonzero if the quant section's mixed-precision cold decode is not at least 2x the float64 decode")
	parallelDur := flag.Duration("parallel-dur", 2*time.Second, "duration of each parallel benchmark pass")
	readersN := flag.Int("readers", runtime.GOMAXPROCS(0), "reader goroutines for the contention benchmark")
	contentionDur := flag.Duration("contention-dur", 2*time.Second, "duration of each contention benchmark pass")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "fast":
		scale = experiments.Fast
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want fast or paper)\n", *scaleFlag)
		os.Exit(2)
	}

	o := obs.NewObserver()
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, o.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof\n", srv.Addr, srv.Addr)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	run := func(name string, f func()) {
		if len(want) > 0 && !want[name] {
			return
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		f()
		fmt.Printf("(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	doc := &benchFile{Command: strings.TrimSpace("saccs-bench " + strings.Join(os.Args[1:], " "))}
	run("table3", func() { experiments.Table3(scale, os.Stdout) })
	run("figures", func() {
		experiments.Figure1(os.Stdout)
		experiments.Figure2(scale, os.Stdout)
		experiments.Figure5(scale, os.Stdout)
	})
	run("table5", func() { experiments.Table5(scale, os.Stdout) })
	run("table4", func() { experiments.Table4(scale, os.Stdout) })
	run("table2", func() { experiments.Table2(scale, os.Stdout) })
	run("stages", func() { stageBenchmarks(o, doc) })
	run("quant", func() { quantBenchmarks(o, doc, *quantGuard) })
	run("parallel", func() { parallelBenchmarks(o, doc, *parallelN, *parallelDur, *qpsGuard) })
	run("contention", func() { contentionBenchmarks(o, doc, *readersN, *contentionDur) })
	run("cache", func() { cacheBenchmarks(o, doc, *parallelDur) })
	run("latency", func() { latencyBenchmarks(o, doc, *parallelDur) })
	run("ingest", func() { ingestBenchmarks(doc, *parallelDur) })
	run("serve", func() { serveBenchmarks(doc, []int{1, 2, 4}, *parallelDur) })

	if *benchOut != "" && (len(doc.Stages) > 0 || len(doc.Quant) > 0 || len(doc.Parallel) > 0 || len(doc.Contention) > 0 || doc.Cache != nil || doc.Latency != nil || doc.Ingest != nil || doc.Serve != nil) {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		cacheRows := 0
		if doc.Cache != nil {
			cacheRows = len(doc.Cache.Results)
		}
		latency := "no latency section"
		if doc.Latency != nil {
			latency = "latency quantiles"
		}
		ingestRows := 0
		if doc.Ingest != nil {
			ingestRows = len(doc.Ingest.Results)
		}
		serveRows := 0
		if doc.Serve != nil {
			serveRows = len(doc.Serve.Passes)
		}
		fmt.Printf("wrote %s (%d stages, %d parallel rows, %d contention passes, %d cache rows, %s, %d ingest rows, %d serve passes)\n",
			*benchOut, len(doc.Stages), len(doc.Parallel), len(doc.Contention), cacheRows, latency, ingestRows, serveRows)
	}
}

// stageResult is one row of BENCH.json. Rows whose name ends in ".batchN"
// (e.g. tagger.decode.batch4) are normalized per sequence — ns/allocs/bytes
// divided by N — so they compare directly against their solo row; Iterations
// still counts whole batched ops.
type stageResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// parallelResult is one configuration of the parallel benchmark. Shards is
// 0 for the in-process core service passes and set for the facade passes
// that compare a sharded client against the single-shard baseline. Queries
// and Seconds total the configuration's Passes; QPS is the median pass,
// MinQPS and MaxQPS the spread.
type parallelResult struct {
	Shards     int     `json:"shards,omitempty"`
	Goroutines int     `json:"goroutines"`
	Queries    int64   `json:"queries"`
	Seconds    float64 `json:"seconds"`
	QPS        float64 `json:"qps"`
	Passes     int     `json:"passes,omitempty"`
	MinQPS     float64 `json:"min_qps,omitempty"`
	MaxQPS     float64 `json:"max_qps,omitempty"`
}

// contentionResult is one pass of the readers-vs-rebuild benchmark.
type contentionResult struct {
	// Mode is "readers-only" (baseline) or "readers+rebuild" (one writer
	// republishing the index continuously under the readers).
	Mode     string  `json:"mode"`
	Readers  int     `json:"readers"`
	Queries  int64   `json:"queries"`
	Rebuilds int64   `json:"rebuilds"`
	Seconds  float64 `json:"seconds"`
	QPS      float64 `json:"qps"`
}

// cacheSection is the extraction-cache benchmark's BENCH.json entry.
type cacheSection struct {
	// Results holds the cold (uncached) and warm (cache pre-warmed)
	// per-sentence extraction measurements.
	Results []stageResult `json:"results"`
	// Speedup is cold ns/op over warm ns/op.
	Speedup float64 `json:"speedup"`
	// HitRatio is the warm pass's cache hit ratio.
	HitRatio float64 `json:"hit_ratio"`
	// ColdQPS and WarmQPS are end-to-end repeated-utterance query
	// throughput with the cache detached and attached.
	ColdQPS float64 `json:"cold_qps"`
	WarmQPS float64 `json:"warm_qps"`
	// QPSSpeedup is WarmQPS over ColdQPS.
	QPSSpeedup float64 `json:"qps_speedup"`
}

// latencySection is the tail-latency benchmark's BENCH.json entry: the
// end-to-end query latency distribution read from the high-resolution
// log-linear histogram after a closed-loop pass.
type latencySection struct {
	Queries int64   `json:"queries"`
	Seconds float64 `json:"seconds"`
	QPS     float64 `json:"qps"`
	// Quantiles are in nanoseconds, accurate to the histogram's 1/32
	// relative error.
	P50Ns  float64 `json:"p50_ns"`
	P90Ns  float64 `json:"p90_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MeanNs float64 `json:"mean_ns"`
}

// ingestResult is one fsync-policy pass of the streaming-ingest benchmark.
type ingestResult struct {
	// Mode is "fsync-always" (every ack is an fsync) or "fsync-batch"
	// (sync at publication boundaries).
	Mode string `json:"mode"`
	// Goroutines is how many concurrent appenders drove the pass (absent or
	// 1: the serial baseline). The fsync-batch rows at 1/4/16 goroutines
	// measure group-commit ack latency: appends acknowledge without a
	// per-record fsync and the publication-boundary sync amortizes across
	// everything the group appended since the last barrier, so the ack
	// quantiles show pure WAL contention rather than storage flushes.
	Goroutines    int     `json:"goroutines,omitempty"`
	Appends       int64   `json:"appends"`
	Seconds       float64 `json:"seconds"`
	AppendsPerSec float64 `json:"appends_per_sec"`
	// Append quantiles are the durable-ack latency seen by callers.
	AppendP50Ns float64 `json:"append_p50_ns"`
	AppendP99Ns float64 `json:"append_p99_ns"`
	// Publish-lag quantiles measure bounded staleness: per publication, how
	// long its oldest pending review waited to become queryable.
	PublishLagP50Ns float64 `json:"publish_lag_p50_ns"`
	PublishLagP99Ns float64 `json:"publish_lag_p99_ns"`
	Publishes       int64   `json:"publishes"`
	Compactions     int64   `json:"compactions"`
}

// ingestSection is the streaming-ingest benchmark's BENCH.json entry.
type ingestSection struct {
	Results []ingestResult `json:"results"`
	// RecoverySeconds is how long a fresh ingester took to replay the
	// fsync-always pass's log (WAL + checkpoint + delta stack) at reopen.
	RecoverySeconds  float64 `json:"recovery_seconds"`
	RecoveredReviews int     `json:"recovered_reviews"`
	RecoveredPerSec  float64 `json:"recovered_per_sec"`
}

// servePass is one open-loop pass of the HTTP serving benchmark: one shard
// count driven at one fixed offered arrival rate.
type servePass struct {
	Shards     int     `json:"shards"`
	OfferedQPS float64 `json:"offered_qps"`
	// AchievedQPS is completed requests over the full pass (scheduled span
	// plus drain); Sustained means achieved/offered >= 0.95 with no errors.
	AchievedQPS float64 `json:"achieved_qps"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Sustained   bool    `json:"sustained"`
	// Latency quantiles are measured from each request's scheduled arrival
	// time, not its send time, so queueing under overload is included.
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
}

// serveShardRow summarizes one shard count: the highest offered rate on the
// shared ladder the server sustained.
type serveShardRow struct {
	Shards          int     `json:"shards"`
	MaxSustainedQPS float64 `json:"max_sustained_qps"`
}

// serveSection is the HTTP serving benchmark's BENCH.json entry.
type serveSection struct {
	// CalibratedQPS is the closed-loop throughput estimate of the 1-shard
	// server the shared rate ladder was derived from.
	CalibratedQPS float64         `json:"calibrated_qps"`
	Passes        []servePass     `json:"passes"`
	MaxSustained  []serveShardRow `json:"max_sustained"`
}

// benchFile is the BENCH.json document.
type benchFile struct {
	Command    string             `json:"command"`
	Stages     []stageResult      `json:"stages,omitempty"`
	Quant      []stageResult      `json:"quant,omitempty"`
	Parallel   []parallelResult   `json:"parallel,omitempty"`
	Contention []contentionResult `json:"contention,omitempty"`
	Cache      *cacheSection      `json:"cache,omitempty"`
	Latency    *latencySection    `json:"latency,omitempty"`
	Ingest     *ingestSection     `json:"ingest,omitempty"`
	Serve      *serveSection      `json:"serve,omitempty"`
}

// benchPipeline builds the fast pipeline the stage and parallel benchmarks
// measure: trained tagger, tree pairer, service with the first 8 canonical
// tags indexed. Built once and shared between sections.
var benchPipeline struct {
	once sync.Once
	svc  *core.Service
	ex   *core.Extractor
	tg   *tagger.Model
}

func buildBenchPipeline(o *obs.Observer) (*core.Service, *core.Extractor, *tagger.Model) {
	benchPipeline.once.Do(func() {
		fmt.Println("building the fast pipeline for the benchmarks...")
		world := yelp.Generate(yelp.FastConfig())
		data := datasets.S1(datasets.Fast)
		encOpts := experiments.DefaultEncoderOpts(datasets.Fast)
		encOpts.Obs = o
		enc := experiments.BuildEncoder(encOpts, world.Domain, nil)
		cfg := tagger.DefaultConfig()
		cfg.Adversarial = true
		cfg.Epsilon = 0.2
		cfg.Precision = nn.Mixed // the serving default (saccs.Config.Precision)
		tg := tagger.New(enc, cfg)
		tg.Obs = o
		tg.Train(data.Train)
		ex := &core.Extractor{
			Tagger: tg,
			Pairer: pairing.Tree{Lex: parse.DomainLexicon(world.Domain), FromOpinions: true},
		}
		svc := core.NewService(world, ex, nil, core.DefaultConfig())
		svc.SetObserver(o)
		svc.BuildEntityTags(core.NeuralSource{E: ex})
		svc.IndexTags(svc.CanonicalTags()[:8])
		benchPipeline.svc, benchPipeline.ex, benchPipeline.tg = svc, ex, tg
	})
	return benchPipeline.svc, benchPipeline.ex, benchPipeline.tg
}

// stageBenchmarks measures every query-path stage in isolation with
// testing.Benchmark and reports ns/op plus allocation counts, printing a
// human table and appending rows to doc.
func stageBenchmarks(o *obs.Observer, doc *benchFile) {
	svc, ex, tg := buildBenchPipeline(o)
	canon := svc.CanonicalTags()

	utterance := "I want an Italian restaurant in Montreal with delicious food and nice staff"
	tokens := tokenize.Words(utterance)
	intent := search.ParseUtterance(utterance)
	apiResults := svc.API.Search(intent.Slots)
	queryTags := ex.ExtractTags(utterance)
	entityTags := svc.EntityTags()

	// Pre-split spans so the pairing stage is measured alone.
	labels := tg.Predict(tokens)
	var aspects, opinions []tokenize.Span
	for _, sp := range tokenize.Spans(labels) {
		if sp.Kind == tokenize.AspectSpan {
			aspects = append(aspects, sp)
		} else {
			opinions = append(opinions, sp)
		}
	}
	buildTags := make([]string, 0, 8)
	for _, t := range canon[:8] {
		buildTags = append(buildTags, strings.ToLower(t))
	}
	var exactTag string
	svc.Index.EachTag(func(t string) bool { exactTag = t; return false })
	// The last canonical tags are not indexed, so resolving one exercises
	// the similarity fallback of Algorithm 1.
	similarTag := strings.ToLower(canon[len(canon)-1])

	// Four copies of the same sentence keep the batched row directly
	// comparable with the serial one: one op decodes 4x the work, so the
	// per-sequence batch speedup is decode ns/op over a quarter of this
	// row's ns/op.
	batch4 := [][]string{tokens, tokens, tokens, tokens}

	stages := []struct {
		name string
		fn   func()
	}{
		{"parse", func() { search.ParseUtterance(utterance) }},
		{"tagger.decode", func() { tg.Predict(tokens) }},
		{"tagger.decode.float64", func() { tg.PredictAt(tokens, nn.Float64) }},
		{"tagger.decode.batch4", func() { tg.PredictBatch(batch4) }},
		{"pairing.pairs", func() { ex.Pairer.Pairs(tokens, aspects, opinions) }},
		{"extract", func() { ex.ExtractFromTokens(tokens) }},
		{"index.build", func() {
			ix := index.New(sim.NewConceptual(), svc.Cfg.ThetaIndex)
			ix.Build(buildTags, entityTags)
		}},
		{"index.resolve.exact", func() { svc.Index.Resolve(exactTag, svc.Cfg.ThetaFilter) }},
		{"index.resolve.similar", func() { svc.Index.Resolve(similarTag, svc.Cfg.ThetaFilter) }},
		{"rank", func() { svc.Ranker.Rank(apiResults, queryTags) }},
		{"query", func() { svc.Query(utterance) }},
	}

	results := make([]stageResult, 0, len(stages))
	fmt.Printf("%-22s %14s %12s %12s\n", "stage", "ns/op", "allocs/op", "B/op")
	for _, st := range stages {
		fn := st.fn
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		row := stageResult{
			Name:        st.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if n := batchRowSize(row.Name); n > 1 {
			row.NsPerOp /= float64(n)
			row.AllocsPerOp /= int64(n)
			row.BytesPerOp /= int64(n)
		}
		results = append(results, row)
		fmt.Printf("%-22s %14.0f %12d %12d\n", row.Name, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}
	var decodeNs, batch4Ns float64
	for _, r := range results {
		switch r.Name {
		case "tagger.decode":
			decodeNs = r.NsPerOp
		case "tagger.decode.batch4":
			batch4Ns = r.NsPerOp
		}
	}
	if batch4Ns > 0 {
		fmt.Printf("batch-4 decode: %.0f ns/sequence, %.2fx the serial decode\n",
			batch4Ns, decodeNs/batch4Ns)
	}
	doc.Stages = results
}

// batchRowSize extracts N from a ".batchN" stage-name suffix (0 otherwise),
// the divisor that normalizes batched rows to per-sequence figures.
func batchRowSize(name string) int {
	i := strings.LastIndex(name, ".batch")
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range name[i+len(".batch"):] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// quantBenchmarks measures the cold Viterbi decode at each precision mode
// over the shared pipeline and reports the mixed- and int8-mode speedups
// against full float64. With guard set the process exits nonzero if the
// mixed decode is not at least 2x float64 — the CI floor under the paper
// target of 3x (oracle/quant-drift separately pins that the speed does not
// come at the cost of label agreement).
func quantBenchmarks(o *obs.Observer, doc *benchFile, guard bool) {
	_, _, tg := buildBenchPipeline(o)
	tokens := tokenize.Words("I want an Italian restaurant in Montreal with delicious food and nice staff")

	modes := []struct {
		name string
		p    nn.Precision
	}{
		{"tagger.decode.float64", nn.Float64},
		{"tagger.decode.mixed", nn.Mixed},
		{"tagger.decode.int8", nn.Int8},
	}
	results := make([]stageResult, 0, len(modes))
	fmt.Printf("%-22s %14s %12s %12s\n", "mode", "ns/op", "allocs/op", "B/op")
	for _, m := range modes {
		p := m.p
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tg.PredictAt(tokens, p)
			}
		})
		row := stageResult{
			Name:        m.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		results = append(results, row)
		fmt.Printf("%-22s %14.0f %12d %12d\n", row.Name, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp)
	}
	f64, mixed, int8ns := results[0].NsPerOp, results[1].NsPerOp, results[2].NsPerOp
	if mixed > 0 && int8ns > 0 {
		fmt.Printf("mixed cold decode: %.2fx float64; int8: %.2fx float64\n", f64/mixed, f64/int8ns)
	}
	doc.Quant = results
	if guard && mixed > 0 && f64/mixed < 2 {
		fmt.Fprintf(os.Stderr, "quant guard: mixed cold decode is %.2fx float64, want >= 2x\n", f64/mixed)
		os.Exit(1)
	}
}

// coldUtterances builds n distinct three-sentence utterances. Distinctness
// keeps the extraction cache out of the picture: every sentence is a real
// decode — the cold path.
func coldUtterances(n int) []string {
	adjs := []string{"delicious", "friendly", "quiet", "creative", "amazing",
		"attentive", "cozy", "fresh", "spicy", "generous", "charming", "polite"}
	nouns := []string{"food", "staff", "atmosphere", "cooking", "pizza",
		"waiters", "desserts", "portions", "music", "service", "tables", "coffee"}
	out := make([]string, n)
	for i := range out {
		a1 := adjs[i%len(adjs)]
		n1 := nouns[(i/len(adjs))%len(nouns)]
		a2 := adjs[(i/(len(adjs)*len(nouns)))%len(adjs)]
		out[i] = fmt.Sprintf(
			"I want an Italian restaurant in Montreal with %s %s and %s desserts. "+
				"My friends keep asking for a place with %s staff and really %s portions. "+
				"It should also have %s music plus some %s coffee for the late evenings.",
			a1, n1, a2, a1, a2, a1, a2)
	}
	return out
}

// coldQueryPass runs g goroutines calling query over the cold utterance pool
// for dur and returns the pass as a parallelResult. A shared round-robin
// counter hands every call the next distinct utterance, so concurrent
// requests never carry the same sentences.
func coldQueryPass(query func(string), pool []string, shards, g int, dur time.Duration) parallelResult {
	var n, seq atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1)
				query(pool[int(i)%len(pool)])
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	return parallelResult{Shards: shards, Goroutines: g, Queries: n.Load(), Seconds: sec, QPS: float64(n.Load()) / sec}
}

// guardRounds is how many rounds the parallel section alternates its passes.
// Its rows report each configuration's median pass, so one slow spell of a
// shared host moves a single pass rather than the guard's verdict.
const guardRounds = 5

// alternate runs each pass once per round, in order, for guardRounds rounds
// and returns one row per pass: its shard and goroutine counts, the queries
// and seconds summed over the rounds, and the median, minimum and maximum
// pass QPS.
func alternate(passes ...func() parallelResult) []parallelResult {
	runs := make([][]parallelResult, len(passes))
	for r := 0; r < guardRounds; r++ {
		for i, pass := range passes {
			runs[i] = append(runs[i], pass())
		}
	}
	rows := make([]parallelResult, len(passes))
	for i, rs := range runs {
		row := parallelResult{Shards: rs[0].Shards, Goroutines: rs[0].Goroutines, Passes: len(rs)}
		qps := make([]float64, len(rs))
		for j, r := range rs {
			row.Queries += r.Queries
			row.Seconds += r.Seconds
			qps[j] = r.QPS
		}
		sort.Float64s(qps)
		row.QPS, row.MinQPS, row.MaxQPS = qps[len(qps)/2], qps[0], qps[len(qps)-1]
		rows[i] = row
	}
	return rows
}

// printParallel prints parallel rows as a table.
func printParallel(rows []parallelResult) {
	fmt.Printf("%-8s %-12s %10s %10s %12s %12s %12s\n", "shards", "goroutines", "queries", "seconds", "median qps", "min qps", "max qps")
	for _, r := range rows {
		fmt.Printf("%-8d %-12d %10d %10.2f %12.1f %12.1f %12.1f\n", r.Shards, r.Goroutines, r.Queries, r.Seconds, r.QPS, r.MinQPS, r.MaxQPS)
	}
}

// parallelBenchmarks measures cold-path end-to-end Query throughput at 1 and
// at workers goroutines over one shared pipeline, alternating the two passes
// for guardRounds rounds. The decodes are independent, so on a multi-core
// box the concurrent median should approach min(workers, cores) times the
// serial one; on one CPU it should at least match it. With guard set, a
// multi-goroutine median below the single-goroutine median fails the
// process — the CI gate against the parallel-scaling regression (more
// goroutines, fewer queries).
func parallelBenchmarks(o *obs.Observer, doc *benchFile, workers int, dur time.Duration, guard bool) {
	if workers < 1 {
		workers = 1
	}
	svc, _, _ := buildBenchPipeline(o)
	pool := coldUtterances(512)

	query := func(u string) { svc.Query(u) }
	pass := func(g int) func() parallelResult {
		return func() parallelResult { return coldQueryPass(query, pool, 0, g, dur) }
	}
	passes := []func() parallelResult{pass(1)}
	if workers > 1 {
		passes = append(passes, pass(workers))
	}
	rows := alternate(passes...)
	printParallel(rows)
	if len(rows) == 2 && rows[0].QPS > 0 {
		fmt.Printf("speedup %dx goroutines: %.2fx (GOMAXPROCS=%d, medians of %d passes)\n",
			rows[1].Goroutines, rows[1].QPS/rows[0].QPS, runtime.GOMAXPROCS(0), guardRounds)
	}
	doc.Parallel = rows
	if guard && len(rows) == 2 && rows[1].QPS < rows[0].QPS {
		fmt.Fprintf(os.Stderr, "qps guard: %d goroutines %.1f QPS < 1 goroutine %.1f QPS (medians of %d passes) — parallel queries must not be slower than serial\n",
			rows[1].Goroutines, rows[1].QPS, rows[0].QPS, guardRounds)
		os.Exit(1)
	}
	if workers > 1 {
		shardedParallel(doc, workers, dur, guard)
	}
}

// shardedParallel extends the parallel section through the public facade:
// the same cold workload at 1 shard / 1 goroutine, 1 shard / `workers`
// goroutines and `workers` shards / `workers` goroutines, alternating for
// guardRounds rounds. The extraction cache is off so every query decodes for
// real. The guard requires the sharded concurrent median to reach the serial
// single-shard median: the scatter-gather fan-out must stay cheap enough
// that sharding never costs the throughput that concurrency buys.
func shardedParallel(doc *benchFile, workers int, dur time.Duration, guard bool) {
	mk := func(shards int) *saccs.Client {
		cfg := saccs.DefaultConfig()
		cfg.Shards = shards
		cfg.ExtractCacheSize = 0
		c, err := saccs.New(cfg)
		if err == nil {
			err = c.IndexEntities(serveWorld(), c.CanonicalTags())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "parallel bench: %d shard(s): %v\n", shards, err)
			os.Exit(1)
		}
		return c
	}
	fmt.Printf("training facade clients (1 and %d shards)...\n", workers)
	baseC, shardedC := mk(1), mk(workers)
	defer baseC.Shutdown()
	defer shardedC.Shutdown()
	pool := coldUtterances(512)

	pass := func(c *saccs.Client, shards, g int) func() parallelResult {
		query := func(u string) { c.Query(u) }
		return func() parallelResult { return coldQueryPass(query, pool, shards, g, dur) }
	}
	rows := alternate(pass(baseC, 1, 1), pass(baseC, 1, workers), pass(shardedC, workers, workers))
	printParallel(rows)
	if rows[0].QPS > 0 {
		fmt.Printf("sharded speedup over the 1-shard serial baseline: %.2fx (medians of %d passes)\n", rows[2].QPS/rows[0].QPS, guardRounds)
	}
	doc.Parallel = append(doc.Parallel, rows...)
	if guard && rows[2].QPS < rows[0].QPS {
		fmt.Fprintf(os.Stderr, "qps guard: %d shards x %d goroutines %.1f QPS < 1 shard x 1 goroutine %.1f QPS (medians of %d passes) — sharded concurrent queries must not be slower than the serial single-shard baseline\n",
			rows[2].Shards, rows[2].Goroutines, rows[2].QPS, rows[0].QPS, guardRounds)
		os.Exit(1)
	}
}

// contentionBenchmarks measures reader throughput with and without a
// concurrent writer. Pass one: `readers` goroutines run end-to-end queries
// for dur (baseline). Pass two: the same readers run while one goroutine
// rebuilds the indexed tag set in a tight loop, publishing a new snapshot
// generation per iteration. The printed slowdown is the price readers pay
// for a continuously churning writer — with pinned immutable snapshots it
// should stay near 1x aside from the CPU the writer itself burns.
func contentionBenchmarks(o *obs.Observer, doc *benchFile, readers int, dur time.Duration) {
	if readers < 1 {
		readers = 1
	}
	svc, _, _ := buildBenchPipeline(o)
	canon := svc.CanonicalTags()
	nTags := 8
	if nTags > len(canon) {
		nTags = len(canon)
	}
	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and a quiet atmosphere",
		"good food and attentive waiters please",
		"a place with creative cooking and amazing pizza",
	}
	measure := func(mode string, rebuild bool) contentionResult {
		var queries, rebuilds atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		start := time.Now()
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(deadline); i++ {
					svc.Query(utterances[i%len(utterances)])
					queries.Add(1)
				}
			}(w)
		}
		if rebuild {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					svc.IndexTags(canon[:nTags])
					rebuilds.Add(1)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		return contentionResult{
			Mode:     mode,
			Readers:  readers,
			Queries:  queries.Load(),
			Rebuilds: rebuilds.Load(),
			Seconds:  elapsed,
			QPS:      float64(queries.Load()) / elapsed,
		}
	}
	fmt.Printf("%-18s %8s %10s %10s %10s %12s\n", "mode", "readers", "queries", "rebuilds", "seconds", "qps")
	rows := []contentionResult{
		measure("readers-only", false),
		measure("readers+rebuild", true),
	}
	for _, r := range rows {
		fmt.Printf("%-18s %8d %10d %10d %10.2f %12.1f\n",
			r.Mode, r.Readers, r.Queries, r.Rebuilds, r.Seconds, r.QPS)
	}
	if rows[0].QPS > 0 {
		fmt.Printf("reader slowdown under continuous rebuild: %.2fx (GOMAXPROCS=%d)\n",
			rows[0].QPS/rows[1].QPS, runtime.GOMAXPROCS(0))
	}
	doc.Contention = rows
}

// cacheBenchmarks measures what the generation-keyed extraction cache buys
// on repeated sentences: cold (uncached) vs warm (pre-warmed cache)
// per-sentence extraction latency and allocations, the warm pass's hit
// ratio, and end-to-end repeated-utterance query throughput with the cache
// detached and attached (dur per QPS pass). Real dialog traffic repeats
// itself — canned phrasings, retried queries, reviews quoting the same
// sentences — which is the regime the warm numbers model.
func cacheBenchmarks(o *obs.Observer, doc *benchFile, dur time.Duration) {
	svc, ex, tg := buildBenchPipeline(o)
	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and a quiet atmosphere",
		"good food and attentive waiters please",
		"a place with creative cooking and amazing pizza",
	}
	sents := make([][]string, len(utterances))
	for i, u := range utterances {
		sents[i] = tokenize.Words(u)
	}

	cold := &core.Extractor{Tagger: tg, Pairer: ex.Pairer}
	cache := extcache.New(4096)
	warm := &core.Extractor{Tagger: tg, Pairer: ex.Pairer, Cache: cache}
	for _, s := range sents {
		warm.ExtractFromTokens(s) // pre-warm: one decode per distinct sentence
	}

	bench := func(name string, fn func(i int)) stageResult {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(i)
			}
		})
		return stageResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
	}
	rows := []stageResult{
		bench("extract.cold", func(i int) { cold.ExtractFromTokens(sents[i%len(sents)]) }),
		bench("extract.warm", func(i int) { warm.ExtractFromTokens(sents[i%len(sents)]) }),
	}
	fmt.Printf("%-14s %14s %12s %12s\n", "pass", "ns/op", "allocs/op", "B/op")
	for _, r := range rows {
		fmt.Printf("%-14s %14.0f %12d %12d\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	sec := &cacheSection{Results: rows}
	if rows[1].NsPerOp > 0 {
		sec.Speedup = rows[0].NsPerOp / rows[1].NsPerOp
	}
	hits, misses, _ := cache.Stats()
	if hits+misses > 0 {
		sec.HitRatio = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("warm speedup: %.1fx  hit ratio: %.4f (%d hits / %d misses)\n",
		sec.Speedup, sec.HitRatio, hits, misses)

	// End-to-end repeated-utterance QPS: the same four utterances through
	// Service.Query, cache detached then attached. Single goroutine — the
	// point is per-query cost, not parallel scaling.
	measureQPS := func() float64 {
		deadline := time.Now().Add(dur)
		start := time.Now()
		n := 0
		for i := 0; time.Now().Before(deadline); i++ {
			svc.Query(utterances[i%len(utterances)])
			n++
		}
		return float64(n) / time.Since(start).Seconds()
	}
	ex.Cache = nil
	sec.ColdQPS = measureQPS()
	ex.Cache = cache
	sec.WarmQPS = measureQPS()
	ex.Cache = nil // leave the shared pipeline the way the other sections expect it
	if sec.ColdQPS > 0 {
		sec.QPSSpeedup = sec.WarmQPS / sec.ColdQPS
	}
	fmt.Printf("repeated-utterance query QPS: cold %.1f, warm %.1f (%.1fx)\n",
		sec.ColdQPS, sec.WarmQPS, sec.QPSSpeedup)
	doc.Cache = sec
}

// latencyBenchmarks measures the end-to-end query latency distribution: it
// attaches request telemetry, runs a single-goroutine closed loop of
// Service.Query calls for dur, and reads p50/p90/p99/p999 from the
// log-linear request.latency.query histogram — the same histogram /metrics
// exports — so BENCH.json tracks tail latency alongside throughput.
func latencyBenchmarks(o *obs.Observer, doc *benchFile, dur time.Duration) {
	svc, _, _ := buildBenchPipeline(o)
	tel := obs.NewTelemetry(obs.TelemetryConfig{Metrics: o.Metrics})
	o.SetTelemetry(tel)
	defer func() {
		o.SetTelemetry(nil) // leave the shared pipeline telemetry-free for other sections
		tel.Close()
	}()

	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and a quiet atmosphere",
		"good food and attentive waiters please",
		"a place with creative cooking and amazing pizza",
	}
	h := o.Metrics.HDR("request.latency.query")
	before := h.Count()
	deadline := time.Now().Add(dur)
	start := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		svc.Query(utterances[i%len(utterances)])
	}
	elapsed := time.Since(start).Seconds()

	snap := h.Snapshot()
	sec := &latencySection{
		Queries: snap.Count - before,
		Seconds: elapsed,
		P50Ns:   float64(snap.Quantile(0.5)),
		P90Ns:   float64(snap.Quantile(0.9)),
		P99Ns:   float64(snap.Quantile(0.99)),
		P999Ns:  float64(snap.Quantile(0.999)),
		MeanNs:  float64(snap.Mean()),
	}
	if elapsed > 0 {
		sec.QPS = float64(sec.Queries) / elapsed
	}
	fmt.Printf("%-10s %10s %12s %12s %12s %12s %12s\n",
		"queries", "qps", "p50", "p90", "p99", "p999", "mean")
	fmt.Printf("%-10d %10.1f %12s %12s %12s %12s %12s\n",
		sec.Queries, sec.QPS,
		time.Duration(sec.P50Ns).Round(time.Microsecond),
		time.Duration(sec.P90Ns).Round(time.Microsecond),
		time.Duration(sec.P99Ns).Round(time.Microsecond),
		time.Duration(sec.P999Ns).Round(time.Microsecond),
		time.Duration(sec.MeanNs).Round(time.Microsecond))
	doc.Latency = sec
}

// ingestTags is the synthetic streaming vocabulary. Reviews carry their tags
// inline ("tag | tag") and benchExtract splits them back out, so the section
// measures the ingest tier itself — WAL append + fsync, delta builds,
// compaction — not the neural extractor in front of it.
var ingestTags = []string{
	"delicious food", "nice staff", "quiet atmosphere", "creative cooking",
	"fair prices", "fresh ingredients", "generous portions", "quick service",
	"cozy decor", "good view",
}

func benchExtract(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, t := range texts {
		for _, p := range strings.Split(t, " | ") {
			if p != "" {
				out[i] = append(out[i], p)
			}
		}
	}
	return out
}

// ingestBenchmarks measures the streaming-ingest tier on the real
// filesystem. Two duration-bound append passes — FsyncAlways (the durability
// default: every acknowledged review is on stable storage) and FsyncBatch
// (sync at publication boundaries) — each over its own WAL directory with
// its own observer, reporting throughput, the durable-ack latency quantiles,
// and the publish-lag quantiles that quantify bounded staleness. The
// fsync-always log is then reopened by a fresh ingester and the recovery
// replay is timed: the crash-restart figure.
func ingestBenchmarks(doc *benchFile, dur time.Duration) {
	const nEntities = 256
	review := func(i int) (string, string) {
		t1 := ingestTags[i%len(ingestTags)]
		t2 := ingestTags[(i*7+3)%len(ingestTags)]
		return fmt.Sprintf("ent-%d", i%nEntities), t1 + " | " + t2
	}

	pass := func(mode string, policy ingest.FsyncPolicy, workers int) (ingestResult, string) {
		dir, err := os.MkdirTemp("", "saccs-ingest-bench-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ingest bench: %v\n", err)
			os.Exit(1)
		}
		io := obs.NewObserver()
		ix := index.New(sim.NewConceptual(), core.DefaultConfig().ThetaIndex)
		ing, err := ingest.Open(ingest.Config{
			Dir:             dir,
			Fsync:           policy,
			PublishEvery:    64,
			PublishInterval: -1,
			CompactAfter:    8,
			Obs:             io,
		}, ix, ingestTags, nil, benchExtract)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ingest bench: open: %v\n", err)
			os.Exit(1)
		}
		ctx := context.Background()
		deadline := time.Now().Add(dur)
		start := time.Now()
		var n int64
		if workers <= 1 {
			for i := 0; time.Now().Before(deadline); i++ {
				id, text := review(i)
				if _, err := ing.Append(ctx, id, text); err != nil {
					fmt.Fprintf(os.Stderr, "ingest bench: append: %v\n", err)
					os.Exit(1)
				}
				n++
			}
		} else {
			// Concurrent appenders stride the review stream so every record
			// is distinct; the total lands in n after the barrier.
			var total atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var mine int64
					for i := g; time.Now().Before(deadline); i += workers {
						id, text := review(i)
						if _, err := ing.Append(ctx, id, text); err != nil {
							fmt.Fprintf(os.Stderr, "ingest bench: append: %v\n", err)
							os.Exit(1)
						}
						mine++
					}
					total.Add(mine)
				}(g)
			}
			wg.Wait()
			n = total.Load()
		}
		if err := ing.Flush(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ingest bench: flush: %v\n", err)
			os.Exit(1)
		}
		sec := time.Since(start).Seconds()
		if err := ing.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ingest bench: close: %v\n", err)
			os.Exit(1)
		}
		app := io.Histogram("ingest.append").Snapshot()
		lag := io.Histogram("ingest.publish.lag").Snapshot()
		return ingestResult{
			Mode:            mode,
			Goroutines:      workers,
			Appends:         n,
			Seconds:         sec,
			AppendsPerSec:   float64(n) / sec,
			AppendP50Ns:     float64(app.Quantile(0.5)),
			AppendP99Ns:     float64(app.Quantile(0.99)),
			PublishLagP50Ns: float64(lag.Quantile(0.5)),
			PublishLagP99Ns: float64(lag.Quantile(0.99)),
			Publishes:       lag.Count,
			Compactions:     int64(io.Counter("ingest.compactions.total").Value()),
		}, dir
	}

	fmt.Printf("%-14s %4s %10s %12s %12s %12s %12s %12s %10s\n",
		"mode", "g", "appends", "appends/s", "ack p50", "ack p99", "lag p50", "lag p99", "compacts")
	sec := &ingestSection{}
	var alwaysDir string
	// The serial fsync-always/fsync-batch baselines, then the group-commit
	// ladder: fsync-batch under 4 and 16 concurrent appenders (1 is the
	// serial row), showing how the publication-boundary sync amortizes while
	// WAL-mutex contention grows the ack quantiles.
	for _, m := range []struct {
		mode    string
		policy  ingest.FsyncPolicy
		workers int
	}{
		{"fsync-always", ingest.FsyncAlways, 1},
		{"fsync-batch", ingest.FsyncBatch, 1},
		{"fsync-batch", ingest.FsyncBatch, 4},
		{"fsync-batch", ingest.FsyncBatch, 16},
	} {
		r, dir := pass(m.mode, m.policy, m.workers)
		sec.Results = append(sec.Results, r)
		fmt.Printf("%-14s %4d %10d %12.0f %12s %12s %12s %12s %10d\n",
			r.Mode, r.Goroutines, r.Appends, r.AppendsPerSec,
			time.Duration(r.AppendP50Ns).Round(time.Microsecond),
			time.Duration(r.AppendP99Ns).Round(time.Microsecond),
			time.Duration(r.PublishLagP50Ns).Round(time.Microsecond),
			time.Duration(r.PublishLagP99Ns).Round(time.Microsecond),
			r.Compactions)
		if m.mode == "fsync-always" {
			alwaysDir = dir
		} else {
			_ = os.RemoveAll(dir)
		}
	}

	// Recovery replay: reopen the fsync-always log cold and time Open.
	ix := index.New(sim.NewConceptual(), core.DefaultConfig().ThetaIndex)
	start := time.Now()
	ing, err := ingest.Open(ingest.Config{Dir: alwaysDir, PublishInterval: -1}, ix, ingestTags, nil, benchExtract)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ingest bench: recovery open: %v\n", err)
		os.Exit(1)
	}
	sec.RecoverySeconds = time.Since(start).Seconds()
	for _, e := range ing.State() {
		sec.RecoveredReviews += e.ReviewCount
	}
	if sec.RecoverySeconds > 0 {
		sec.RecoveredPerSec = float64(sec.RecoveredReviews) / sec.RecoverySeconds
	}
	if err := ing.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ingest bench: recovery close: %v\n", err)
		os.Exit(1)
	}
	_ = os.RemoveAll(alwaysDir)
	fmt.Printf("recovery replay: %d reviews in %v (%.0f reviews/s)\n",
		sec.RecoveredReviews, time.Duration(sec.RecoverySeconds*float64(time.Second)).Round(time.Millisecond),
		sec.RecoveredPerSec)
	doc.Ingest = sec
}

// serveWorld converts the seeded demo Yelp world into facade entities — the
// same corpus the golden snapshots and cmd/saccs-server -seed-demo use.
func serveWorld() []saccs.Entity {
	w := yelp.Generate(yelp.FastConfig())
	out := make([]saccs.Entity, len(w.Entities))
	for i, e := range w.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		out[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	return out
}

// serveBenchmarks drives the real HTTP tier with an open-loop load generator.
// For each shard count it trains a facade client over the demo world, starts
// a server on loopback, and replays /v1/query at the fixed arrival rates of a
// shared ladder calibrated once against the 1-shard server. Open loop means
// arrivals fire on schedule no matter how slow earlier requests are, and each
// request's latency is clocked from its scheduled arrival — so when the
// server falls behind, the queueing shows up in the quantiles instead of
// silently throttling the generator (coordinated omission). A rate is
// sustained when achieved/offered >= 0.95 with zero errors; the per-shard
// summary is the highest sustained rung. The query pool repeats four
// utterances, keeping the extraction cache warm so per-request cost is
// dominated by resolution and ranking — the work that actually shards. (How
// sustained QPS moves with shard count depends on the cores available: on a
// single-CPU box the fan-out is pure scheduling overhead, so the regression
// gate on sharding lives in the parallel section's facade comparison, not
// here.)
func serveBenchmarks(doc *benchFile, shardCounts []int, dur time.Duration) {
	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and a quiet atmosphere",
		"good food and attentive waiters please",
		"a place with creative cooking and amazing pizza",
	}
	httpc := &http.Client{
		Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512},
		Timeout:   time.Minute,
	}

	startServer := func(shards int) (*server.Server, error) {
		cfg := saccs.DefaultConfig()
		cfg.TrainingScale = "fast"
		cfg.Shards = shards
		c, err := saccs.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.IndexEntities(serveWorld(), c.CanonicalTags()); err != nil {
			return nil, err
		}
		s := server.New(c, server.Config{Addr: "127.0.0.1:0"})
		if err := s.Start(); err != nil {
			return nil, err
		}
		return s, nil
	}

	query := func(base string, i int) error {
		body := `{"utterance":"` + utterances[i%len(utterances)] + `"}`
		resp, err := httpc.Post(base+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	// closedLoop estimates capacity: workers hammer the server back to back.
	closedLoop := func(base string, workers int, d time.Duration) float64 {
		var n, seq atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(d)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					if query(base, int(seq.Add(1))) == nil {
						n.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return float64(n.Load()) / time.Since(start).Seconds()
	}

	// openLoop fires requests at the offered rate for dur over a fixed pool
	// of connections (the wrk2 model: arrivals keep their schedule, and when
	// every connection is busy the missed schedule is charged to the
	// measurement, because each request's latency is clocked from its
	// scheduled arrival time, not from when a connection freed up).
	const workers = 32
	openLoop := func(base string, shards int, rate float64) servePass {
		n := int(rate * dur.Seconds())
		if n < 1 {
			n = 1
		}
		lat := make([]time.Duration, n)
		var errs, next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					sched := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(sched))
					if err := query(base, i); err != nil {
						errs.Add(1)
					}
					lat[i] = time.Since(sched)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		q := func(p float64) float64 {
			return float64(lat[min(n-1, int(p*float64(n)))])
		}
		achieved := float64(int64(n)-errs.Load()) / elapsed
		return servePass{
			Shards:      shards,
			OfferedQPS:  rate,
			AchievedQPS: achieved,
			Requests:    int64(n),
			Errors:      errs.Load(),
			Sustained:   errs.Load() == 0 && achieved >= 0.95*rate,
			P50Ns:       q(0.50),
			P99Ns:       q(0.99),
			P999Ns:      q(0.999),
		}
	}

	sec := &serveSection{}
	var ladder []float64
	fmt.Printf("%-8s %12s %12s %10s %8s %10s %10s %10s %10s\n",
		"shards", "offered", "achieved", "requests", "errors", "p50", "p99", "p999", "sustained")
	for _, shards := range shardCounts {
		fmt.Printf("training %d-shard pipeline...\n", shards)
		srv, err := startServer(shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve bench: %d shards: %v\n", shards, err)
			os.Exit(1)
		}
		base := "http://" + srv.Addr()
		// Warm before measuring: a short closed-loop burst opens every pool
		// connection and fills the extraction cache, so no rung is charged
		// for TCP handshakes or cold decodes. (The calibrated server gets
		// this for free from calibration; the others need it explicitly.)
		closedLoop(base, workers, dur/8)
		if ladder == nil {
			cal := closedLoop(base, workers, dur)
			sec.CalibratedQPS = cal
			// 0.3x anchors the ladder low enough that a shard count whose
			// fan-out overhead dominates on this machine still lands a
			// nonzero sustained figure instead of failing every rung.
			for _, m := range []float64{0.3, 0.5, 0.7, 0.9, 1.1} {
				ladder = append(ladder, cal*m)
			}
			fmt.Printf("calibrated %.1f QPS closed-loop on %d shard(s); ladder %.1f..%.1f\n",
				cal, shards, ladder[0], ladder[len(ladder)-1])
		}
		maxSustained := 0.0
		for _, rate := range ladder {
			p := openLoop(base, shards, rate)
			sec.Passes = append(sec.Passes, p)
			if p.Sustained && p.OfferedQPS > maxSustained {
				maxSustained = p.OfferedQPS
			}
			fmt.Printf("%-8d %12.1f %12.1f %10d %8d %10s %10s %10s %10v\n",
				p.Shards, p.OfferedQPS, p.AchievedQPS, p.Requests, p.Errors,
				time.Duration(p.P50Ns).Round(time.Microsecond),
				time.Duration(p.P99Ns).Round(time.Microsecond),
				time.Duration(p.P999Ns).Round(time.Microsecond),
				p.Sustained)
		}
		sec.MaxSustained = append(sec.MaxSustained, serveShardRow{Shards: shards, MaxSustainedQPS: maxSustained})
		httpc.CloseIdleConnections()
		if err := srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "serve bench: shutdown %d shards: %v\n", shards, err)
			os.Exit(1)
		}
	}
	for _, r := range sec.MaxSustained {
		fmt.Printf("max sustained @ %d shard(s): %.1f QPS\n", r.Shards, r.MaxSustainedQPS)
	}
	doc.Serve = sec
}
