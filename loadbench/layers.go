package main

import (
	"time"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the server's own counters into per-layer counts for the
// measured query phases (q: fixed pass + ladder) and for every write of the
// run (wr: the same span plus any append tail). Histogram-derived times are
// exact means (sum ÷ count); the `_le_` metrics are power-of-two bucket
// upper bounds, which can overstate the quantile by up to 2x.
func layerMetrics(q, wr delta, memA, memB memStats, lateP99 time.Duration, w Workload) map[string]metric {
	count := func(v float64) metric { return metric{v, "count"} }
	us := func(sec float64) metric { return metric{sec * 1e6, "us"} }
	m := map[string]metric{}

	hits, misses := q.counter("extract.cache.hit.total"), q.counter("extract.cache.miss.total")
	m["extcache.hits"] = count(hits)
	m["extcache.misses"] = count(misses)
	m["extcache.evictions"] = count(q.counter("extract.cache.eviction.total"))
	m["extcache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}

	m["core.sentences"] = count(hits + misses)
	m["core.batch_shared"] = count(q.counter("extract.batch.total"))
	m["core.batch_solo"] = count(q.counter("extract.batch.solo.total"))
	m["core.batch_wait_us"] = us(q.histMean("extract.batch.wait"))
	m["core.decodes"] = count(q.histCount("tagger.predict"))
	m["core.decode_mean_us"] = us(q.histMean("stage.tagger.decode"))
	m["core.decode_p99_le_us"] = us(q.histBucketBound("stage.tagger.decode", 0.99))
	m["search.rank_mean_us"] = us(q.histMean("stage.rank"))
	m["search.rank_p99_le_us"] = us(q.histBucketBound("stage.rank", 0.99))

	exact, similar := q.counter("index.resolve.exact.total"), q.counter("index.resolve.similar.total")
	m["index.resolve_exact"] = count(exact)
	m["index.resolve_similar"] = count(similar)
	m["index.similar_share"] = metric{ratio(similar, exact+similar), "ratio"}
	m["index.generations"] = count(wr.get(promName("index.generation")))

	mh, mm := q.counter("sim.memo.hit.total"), q.counter("sim.memo.miss.total")
	m["sim.memo_hits"] = count(mh)
	m["sim.memo_misses"] = count(mm)
	m["sim.memo_hit_ratio"] = metric{ratio(mh, mh+mm), "ratio"}

	m["ingest.appends"] = count(wr.counter("ingest.wal.appends.total"))
	m["ingest.fsyncs"] = count(wr.histCount("ingest.wal.fsync"))
	m["ingest.fsync_us"] = us(wr.histMean("ingest.wal.fsync"))
	m["ingest.fsync_p99_le_us"] = us(wr.histBucketBound("ingest.wal.fsync", 0.99))
	m["ingest.publishes"] = count(wr.histCount("ingest.publish"))
	m["ingest.publish_lag_ms"] = metric{wr.histMean("ingest.publish.lag") * 1e3, "ms"}
	m["ingest.compactions"] = count(wr.counter("ingest.compactions.total"))
	m["ingest.errors"] = count(wr.after[promName("ingest.publish.errors.total")] + wr.after[promName("ingest.compact.errors.total")])

	cycles, pause := gcBetween(memA, memB)
	m["runtime.gc_cycles"] = count(float64(cycles))
	m["runtime.gc_pause_ms"] = metric{float64(pause) / 1e6, "ms"}
	m["runtime.heap_mb"] = metric{float64(memB.HeapAlloc) / (1 << 20), "MiB"}

	m["loadgen.late_p99_ms"] = metric{float64(lateP99) / 1e6, "ms"}
	m["loadgen.conns"] = count(float64(w.QueryConns + w.AppendConns))
	return m
}
