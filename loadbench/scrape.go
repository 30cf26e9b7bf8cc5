package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one reading of the server's /metrics (Prometheus text format):
// every sample keyed by its series name with labels, e.g.
// `ingest_wal_fsync_seconds_bucket{le="0.001024"}`.
type scrape map[string]float64

func parseMetrics(text string) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta is the change of every series between two scrapes of one process.
// Counters and histogram buckets only grow, so their deltas count what
// happened in between; a gauge's delta is just the difference of readings.
type delta struct{ before, after scrape }

func (d delta) get(series string) float64 { return d.after[series] - d.before[series] }

// counter returns the delta of a counter registered under a dotted name.
func (d delta) counter(name string) float64 { return d.get(promName(name)) }

// histCount and histSum are the observation count and total seconds a
// histogram gained. Both are exact: only the buckets are coarse.
func (d delta) histCount(name string) float64 {
	return d.get(promName(name) + "_seconds_count")
}

func (d delta) histSum(name string) float64 {
	return d.get(promName(name) + "_seconds_sum")
}

// histMean is the exact mean of the observations a histogram gained, in
// seconds (0 when it gained none).
func (d delta) histMean(name string) float64 {
	if n := d.histCount(name); n > 0 {
		return d.histSum(name) / n
	}
	return 0
}

// histBucketBound returns the upper bound, in seconds, of the power-of-two
// bucket holding the q-quantile of the observations gained. It is a bound
// that may overstate the true quantile by up to 2x, never a quantile.
// Observations past the last finite bucket give +Inf.
func (d delta) histBucketBound(name string, q float64) float64 {
	prefix := promName(name) + "_seconds_bucket{le=\""
	type bucket struct {
		le  float64
		cum float64
	}
	var bs []bucket
	for series := range d.after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := math.Inf(1)
		if raw := strings.TrimSuffix(series[len(prefix):], "\"}"); raw != "+Inf" {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = v
		}
		bs = append(bs, bucket{le, d.get(series)})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := math.Ceil(q * total)
	for _, b := range bs {
		if b.cum >= rank {
			return b.le
		}
	}
	return math.Inf(1)
}

// promName maps a dotted instrument name onto the Prometheus charset the
// server's exposition uses ('.' and '-' become '_').
func promName(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '.' || r == '-' {
			return '_'
		}
		return r
	}, s)
}

// memStats is the runtime.MemStats header of the server's
// /debug/pprof/heap?debug=1 page: the GC count, the ring of recent pause
// times and the live heap.
type memStats struct {
	NumGC     uint32
	PauseNs   [256]uint64
	HeapAlloc uint64
}

func parseMemStats(text string) (memStats, error) {
	var m memStats
	found := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		key, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		switch key {
		case "NumGC":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return m, fmt.Errorf("memstats NumGC: %w", err)
			}
			m.NumGC = uint32(n)
			found++
		case "HeapAlloc":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return m, fmt.Errorf("memstats HeapAlloc: %w", err)
			}
			m.HeapAlloc = n
			found++
		case "PauseNs":
			fields := strings.Fields(strings.Trim(val, "[]"))
			if len(fields) != len(m.PauseNs) {
				return m, fmt.Errorf("memstats PauseNs: %d entries", len(fields))
			}
			for i, f := range fields {
				n, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return m, fmt.Errorf("memstats PauseNs: %w", err)
				}
				m.PauseNs[i] = n
			}
			found++
		}
	}
	if found != 3 {
		return m, fmt.Errorf("memstats: header incomplete")
	}
	return m, sc.Err()
}

// gcBetween returns the GC cycles run and their total stop-the-world pause
// between two readings. The pause ring holds the last 256 cycles, so longer
// gaps sum only the most recent 256.
func gcBetween(a, b memStats) (cycles int, pauseNs uint64) {
	cycles = int(b.NumGC - a.NumGC)
	for k := 0; k < min(cycles, len(b.PauseNs)); k++ {
		pauseNs += b.PauseNs[(int(b.NumGC)-1-k+len(b.PauseNs))%len(b.PauseNs)]
	}
	return cycles, pauseNs
}
