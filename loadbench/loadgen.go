package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// queryReply is the /v1/query wire format the checks decode.
type queryReply struct {
	Intent  string            `json:"intent"`
	Slots   map[string]string `json:"slots"`
	Tags    []string          `json:"tags"`
	Results []struct {
		ID    string  `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
}

// api is a connection-limited client of one server.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string, conns int) *api {
	return &api{base: base, hc: &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// body pre-encodes a request body so the send path does no JSON work.
func body(r Request) []byte {
	var v any
	if r.Kind == "append" {
		v = map[string]string{"entity_id": r.EntityID, "review": r.Text}
	} else {
		v = map[string]string{"utterance": r.Text}
	}
	b, _ := json.Marshal(v) // a map of strings always encodes
	return b
}

// do sends one API request and checks the answer: HTTP 200 and well-formed
// JSON of the endpoint's shape. A query's decoded reply is returned.
func (a *api) do(kind string, payload []byte) (*queryReply, error) {
	resp, err := a.hc.Post(a.base+"/v1/"+kind, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", kind, resp.StatusCode, bytes.TrimSpace(b))
	}
	if kind == "append" {
		var ack struct{ Status string }
		if err := json.Unmarshal(b, &ack); err != nil || ack.Status != "ok" {
			return nil, fmt.Errorf("append: malformed ack %q", b)
		}
		return nil, nil
	}
	var q queryReply
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, fmt.Errorf("query: malformed JSON: %w", err)
	}
	if q.Intent == "" || q.Results == nil {
		return nil, fmt.Errorf("query: reply without intent or results: %q", b)
	}
	return &q, nil
}

// get fetches a control endpoint (metrics, readiness) as text.
func (a *api) get(path string) (int, string, error) {
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		return 0, "", err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(b), err
}

// missed stands for the latency of a request that failed or was never sent
// before its pass ended: it misses every latency limit.
const missed = time.Duration(math.MaxInt64)

// passResult is one open-loop pass at a fixed offered rate.
type passResult struct {
	Offered  float64
	Lat      []time.Duration // per scheduled request (see the clock in openLoop); missed if failed or unsent
	Late     []time.Duration // per sent request, how late the generator itself sent it
	Sent     int
	Failed   int
	Unsent   int
	Achieved float64 // completed requests per second (see the span in openLoop)
	Errs     []error
}

// openLoop sends reqs at a fixed rate over conns workers (the wrk2 model):
// request i is due at start + i/rate whether or not earlier ones finished,
// and its latency runs from that due time, so a stalled server is charged for
// the queue it builds (see the clock below for the one exception). Requests still unsent when the schedule plus one window of
// grace has passed are abandoned and count as missed.
func openLoop(a *api, reqs []Request, rate float64, conns int) passResult {
	// The generator's own garbage collector stays off during a pass, so its
	// pauses are not charged to the server; the memory limit still bounds
	// the heap, and the garbage is collected between passes.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GC()
	n := len(reqs)
	payloads := make([][]byte, n)
	for i, r := range reqs {
		payloads[i] = body(r)
	}
	window := time.Duration(float64(n) / rate * float64(time.Second))
	res := passResult{Offered: rate, Lat: make([]time.Duration, n)}
	late := make([]time.Duration, n)
	sentFlag := make([]bool, n)
	for i := range res.Lat {
		res.Lat[i] = missed
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	stop := start.Add(2 * window)
	if math.IsInf(rate, 1) {
		stop = start.Add(time.Hour) // closed loop: no schedule to fall behind
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				free := time.Now()
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				// The clock starts at the due time, so time a request waited
				// for a connection the server kept busy is charged to the
				// server. When the connection was idle, the wait past the due
				// time is the generator's own timer slack (sleeps wake up to
				// ~1ms late): the clock then starts at the send, and the slack
				// is reported as generator lateness instead.
				clock := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					clock = time.Now()
				}
				sent := time.Now()
				if sent.After(stop) {
					return
				}
				kind := reqs[i].Kind
				_, err := a.do(kind, payloads[i])
				done := time.Now()
				late[i] = sent.Sub(later(due, free))
				sentFlag[i] = true
				if err != nil {
					mu.Lock()
					res.Errs = append(res.Errs, err)
					mu.Unlock()
					continue
				}
				res.Lat[i] = done.Sub(clock)
			}
		}()
	}
	wg.Wait()
	completed := 0
	for i := range reqs {
		if !sentFlag[i] {
			res.Unsent++
			continue
		}
		res.Sent++
		res.Late = append(res.Late, late[i])
		if res.Lat[i] != missed {
			completed++
		}
	}
	res.Failed = len(res.Errs)
	// The pass's requests completed over its window plus the lag at which
	// its last ones finished: the median latency of the final 5%. A backlog
	// that grew through the pass shows in that lag; one slow last request
	// does not. Most of them missing counts as achieving nothing.
	tail := append([]time.Duration(nil), res.Lat[n-min(n, max(1, n/20)):]...)
	if lag := quantile(tail, 0.5); lag != missed {
		res.Achieved = float64(completed) / (window + lag).Seconds()
	}
	return res
}

// merge appends pass p's samples and counts to m; rates are left alone,
// as they belong to single passes.
func (m *passResult) merge(p passResult) {
	m.Lat = append(m.Lat, p.Lat...)
	m.Late = append(m.Late, p.Late...)
	m.Sent += p.Sent
	m.Failed += p.Failed
	m.Unsent += p.Unsent
	m.Errs = append(m.Errs, p.Errs...)
}

// closedLoop sends reqs back to back over conns workers, every one of them
// whatever the server's pace. It serves the warm-up, which is not measured.
func closedLoop(a *api, reqs []Request, conns int) passResult {
	return openLoop(a, reqs, math.Inf(1), conns)
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// Quantile returns the q-quantile of ds by the nearest-rank method (ds is
// sorted in place). It is exact over the samples, not a bucket bound.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(k, 0), len(ds)-1)]
}

// beyond counts the samples strictly above the q-quantile: a percentile is
// reported only with the number of samples that lie past it.
func beyond(ds []time.Duration, q float64) int {
	v := quantile(ds, q)
	return len(ds) - sort.Search(len(ds), func(i int) bool { return ds[i] > v })
}

// meetsSLO is the ladder's pass rule: p99 within the limit (failed and
// unsent requests count as missing it), nothing failed, and no growing
// backlog (achieved at least 95% of offered).
func (p passResult) meetsSLO(limit time.Duration) bool {
	lat := append([]time.Duration(nil), p.Lat...)
	return p.Failed == 0 && p.Unsent == 0 && quantile(lat, 0.99) <= limit && p.Achieved >= 0.95*p.Offered
}

// staircase walks the fixed SLO ladder one trial at a time: up after a rung
// meets the rule, down after it misses. It moves two rungs per trial until
// the first reversal, so it reaches the knee from its starting rung within
// a few trials, then one. Its result is taken at the highest rung met in at
// least half of its trials: a single trial spoiled by the host neither ends
// the climb nor sets the figure. A void trial, one whose load the generator
// failed to offer, counts neither for nor against its rung; the walk steps
// down from it as from a miss.
type staircase struct {
	ladder        []float64
	k, step       int
	pass, fail    []int
	achieved      []float64 // sum of the rates achieved by each rung's passing trials
	trials, voids int
	lastOK        bool
}

func newStaircase(ladder []float64, start int) *staircase {
	n := len(ladder)
	return &staircase{ladder: ladder, k: start, step: 2, pass: make([]int, n), fail: make([]int, n), achieved: make([]float64, n)}
}

// next is the rung of the next trial.
func (s *staircase) next() int { return s.k }

// record takes the outcome of a trial at rung next(), and the rate it
// achieved, and moves.
func (s *staircase) record(ok, void bool, achieved float64) {
	switch {
	case void:
		s.voids++
		ok = false
	case ok:
		s.pass[s.k]++
		s.achieved[s.k] += achieved
	default:
		s.fail[s.k]++
	}
	if s.trials > 0 && ok != s.lastOK {
		s.step = 1
	}
	s.trials++
	s.lastOK = ok
	if ok {
		s.k = min(s.k+s.step, len(s.ladder)-1)
	} else {
		s.k = max(s.k-s.step, 0)
	}
}

// result returns the rung met in at least half of its trials that is
// highest, and the mean rate its passing trials achieved (at least 95% of
// the rung's rate, by the rule). Both are 0 when no rung was met.
func (s *staircase) result() (rung, achieved float64) {
	for k := len(s.ladder) - 1; k >= 0; k-- {
		if s.pass[k] > 0 && s.pass[k] >= s.fail[k] {
			return s.ladder[k], s.achieved[k] / float64(s.pass[k])
		}
	}
	return 0, 0
}
