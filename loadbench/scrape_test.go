package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

const metricsBefore = `# TYPE extract_cache_hit_total counter
extract_cache_hit_total 10
# TYPE extract_cache_miss_total counter
extract_cache_miss_total 5
# TYPE index_generation gauge
index_generation 3
# TYPE ingest_wal_fsync_seconds histogram
ingest_wal_fsync_seconds_bucket{le="1e-06"} 0
ingest_wal_fsync_seconds_bucket{le="2e-06"} 0
ingest_wal_fsync_seconds_bucket{le="4e-06"} 1
ingest_wal_fsync_seconds_bucket{le="+Inf"} 1
ingest_wal_fsync_seconds_sum 3e-06
ingest_wal_fsync_seconds_count 1
`

const metricsAfter = `# TYPE extract_cache_hit_total counter
extract_cache_hit_total 40
# TYPE extract_cache_miss_total counter
extract_cache_miss_total 15
# TYPE index_generation gauge
index_generation 7
# TYPE ingest_wal_fsync_seconds histogram
ingest_wal_fsync_seconds_bucket{le="1e-06"} 0
ingest_wal_fsync_seconds_bucket{le="2e-06"} 90
ingest_wal_fsync_seconds_bucket{le="4e-06"} 100
ingest_wal_fsync_seconds_bucket{le="+Inf"} 101
ingest_wal_fsync_seconds_sum 0.000303
ingest_wal_fsync_seconds_count 101
`

func testDelta(t *testing.T) delta {
	t.Helper()
	a, err := parseMetrics(metricsBefore)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseMetrics(metricsAfter)
	if err != nil {
		t.Fatal(err)
	}
	return delta{a, b}
}

func TestMetricsDelta(t *testing.T) {
	d := testDelta(t)
	if got := d.counter("extract.cache.hit.total"); got != 30 {
		t.Errorf("hit delta = %v, want 30", got)
	}
	if got := d.counter("extract.cache.miss.total"); got != 10 {
		t.Errorf("miss delta = %v, want 10", got)
	}
	if got := d.get(promName("index.generation")); got != 4 {
		t.Errorf("generation delta = %v, want 4", got)
	}
	if got := d.histCount("ingest.wal.fsync"); got != 100 {
		t.Errorf("fsync count delta = %v, want 100", got)
	}
	// 100 new observations summing to 300µs: an exact 3µs mean.
	if got := d.histMean("ingest.wal.fsync"); math.Abs(got-3e-6) > 1e-12 {
		t.Errorf("fsync mean = %v, want 3e-06", got)
	}
}

func TestBucketBoundIsAnUpperBound(t *testing.T) {
	d := testDelta(t)
	// New observations: 90 in (1µs,2µs], 9 in (2µs,4µs], 1 past 4µs.
	if got := d.histBucketBound("ingest.wal.fsync", 0.5); got != 2e-6 {
		t.Errorf("p50 bucket bound = %v, want 2e-06", got)
	}
	if got := d.histBucketBound("ingest.wal.fsync", 0.99); got != 4e-6 {
		t.Errorf("p99 bucket bound = %v, want 4e-06", got)
	}
	if got := d.histBucketBound("ingest.wal.fsync", 1); !math.IsInf(got, 1) {
		t.Errorf("max bucket bound = %v, want +Inf", got)
	}
	if got := d.histBucketBound("no.such.histogram", 0.5); got != 0 {
		t.Errorf("absent histogram bound = %v, want 0", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics("extract_cache_hit_total ten\n"); err == nil {
		t.Error("want an error for a non-numeric sample")
	}
	if _, err := parseMetrics("lonely\n"); err == nil {
		t.Error("want an error for a line without a value")
	}
}

func TestMemStatsAndGC(t *testing.T) {
	page := func(numGC int, pauses []uint64, heap int) string {
		ring := make([]string, 256)
		for i := range ring {
			ring[i] = "0"
		}
		for i, p := range pauses {
			ring[i] = strconv.FormatUint(p, 10)
		}
		return fmt.Sprintf("heap profile: 1: 2 [3: 4] @ heap/1048576\n# runtime.MemStats\n# HeapAlloc = %d\n# PauseNs = [%s]\n# NumGC = %d\n",
			heap, strings.Join(ring, " "), numGC)
	}
	a, err := parseMemStats(page(2, []uint64{100, 200}, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseMemStats(page(4, []uint64{100, 200, 300, 400}, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Cycles 3 and 4 ran in between; their pauses sit at ring slots 2 and 3.
	cycles, pause := gcBetween(a, b)
	if cycles != 2 || pause != 700 {
		t.Errorf("gcBetween = %d cycles %dns, want 2 cycles 700ns", cycles, pause)
	}
	if b.HeapAlloc != 2<<20 {
		t.Errorf("HeapAlloc = %d", b.HeapAlloc)
	}
	if _, err := parseMemStats("no header here\n"); err == nil {
		t.Error("want an error for a page without MemStats")
	}
}
