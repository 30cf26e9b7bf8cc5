package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// probeUtterances are the five golden utterances of the repository's
// snapshot tests: asked at the start and end of every read-only phase, they
// must be answered identically.
var probeUtterances = []string{
	"I want an Italian restaurant in Montreal with delicious food",
	"somewhere with nice staff and a romantic ambiance",
	"a quiet atmosphere and quick service please",
	"fair prices, fresh ingredients and generous portions",
	"a place that serves tasty meals",
}

// Shares of --seconds given to each measured phase. A read-only workload
// ends with a write-only append tail so that every workload exercises the
// write path; review-stream appends during its query phases instead and
// splits the tail's share between them.
const (
	fixedShare  = 0.48
	ladderShare = 0.42
	tailShare   = 0.10
	warmupSecs  = 0.5
)

// The fixed-rate pass and the SLO ladder are cut into slotSecs-long pairs
// of one fixed-rate chunk and one rung trial, run alternately, so both
// figures sample the host over the whole run rather than over one stretch
// of it. settle is the pause after a rung trial, for its queue to drain.
const (
	slotSecs = 1.5
	settle   = 100 * time.Millisecond
)

// lateLimit is how late the generator may send a pass's requests (p99,
// against the later of due time and a free connection): a third of the
// tightest p99 limit. A rung trial sent later than that is void, since the
// generator, not the server, set its load. A run is invalid, and fails,
// when its fixed-rate chunks were sent that late or more than half of its
// rung trials were void.
const lateLimit = 15 * time.Millisecond

// tally accumulates request outcomes and failed checks over a run.
type tally struct {
	attempted, failed int
	problems          []string
}

// pass counts a pass's requests. Requests it abandoned unsent count as
// attempted and failed, except in a rung trial, whose load is meant to reach
// past what the server sustains.
func (t *tally) pass(p passResult, trial bool) {
	t.attempted += p.Sent
	t.failed += p.Failed
	if !trial {
		t.attempted += p.Unsent
		t.failed += p.Unsent
	}
	for i, err := range p.Errs {
		if i == 3 {
			t.problems = append(t.problems, fmt.Sprintf("... %d more request errors", len(p.Errs)-3))
			break
		}
		t.problems = append(t.problems, err.Error())
	}
}

// fail records a failed check; it counts as one failed request.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// run is the state of one benchmark run against one server child.
type run struct {
	w      Workload
	p      *plan
	t      tally
	ctl    *api // probes and scrapes, between load phases
	qa, aa *api // query and append connections (aa is nil on read-only workloads)

	acked     int             // acknowledged appends
	appendLat []time.Duration // latency of every append
}

func drive(o options) (*result, error) {
	wls, err := loadWorkloads()
	if err != nil {
		return nil, err
	}
	w, ok := wls[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(wls), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := newPlan(w, o.seed, o.seconds, entityIDs())
	runDir, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	hostLine, _ := json.Marshal(provenance()) // a map of strings always encodes
	fmt.Printf("host %s\n", hostLine)

	t0 := time.Now()
	ch, err := startChild(self, filepath.Join(runDir, "wal"), o.traced)
	if err != nil {
		return nil, err
	}
	defer ch.kill()
	addr, err := ch.expect("addr ", 170*time.Second)
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	r := &run{w: w, p: p, ctl: newAPI(base, 1), qa: newAPI(base, w.QueryConns)}
	defer r.ctl.close()
	defer r.qa.close()
	for {
		code, _, err := r.ctl.get("/readyz")
		if err == nil && code == 200 {
			break
		}
		if time.Since(t0) > 175*time.Second {
			return nil, fmt.Errorf("server never became ready (last: %d %v)", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	setup := time.Since(t0)
	fmt.Printf("setup %.3fs (train + index the paper world)\n", setup.Seconds())
	if !w.ReadOnly() {
		r.aa = newAPI(base, w.AppendConns)
		defer r.aa.close()
	}

	startProbes := r.probes()
	r.warmUp()
	scrapeA, memA, err := readServer(r.ctl)
	if err != nil {
		return nil, err
	}
	fixedQ, fixedA, qp50, sc := r.measure()
	scrapeB, memB, err := readServer(r.ctl)
	if err != nil {
		return nil, err
	}
	if w.ReadOnly() {
		for i, end := range r.probes() {
			if !reflect.DeepEqual(startProbes[i], end) {
				r.t.fail("probe answer changed across the read-only phases: %q", probeUtterances[i])
			}
		}
		// Write-only tail: the write path with no concurrent queries.
		tail := openLoop(r.qa, p.tail, appendQPS, w.QueryConns)
		r.t.pass(tail, false)
		r.acked += tail.Sent - tail.Failed
		r.appendLat = tail.Lat
	}
	scrapeC, _, err := readServer(r.ctl)
	if err != nil {
		return nil, err
	}
	query, writes := delta{scrapeA, scrapeB}, delta{scrapeA, scrapeC}
	r.checkDurability(writes)
	rss, err := peakRSS(ch.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	fixedLat := fixedQ.Lat
	qp90, qp99 := quantile(fixedLat, 0.90), quantile(fixedLat, 0.99)
	ap50, ap99 := quantile(r.appendLat, 0.50), quantile(r.appendLat, 0.99)
	lateP99 := quantile(append(append([]time.Duration(nil), fixedQ.Late...), fixedA.Late...), 0.99)
	rung, slo := sc.result()
	fmt.Printf("fixed %.0f q/s for %.1fs: %d queries; median chunk p50 %.3fms; p90 %.3fms p99 %.3fms (%d samples beyond); generator late p99 %.3fms\n",
		w.QueryQPS, p.fixedSecs*float64(p.slots), len(fixedLat), ms(qp50), ms(qp90), ms(qp99), beyond(fixedLat, 0.99), ms(lateP99))
	fmt.Printf("appends: %d, p50 %.3fms p99 %.3fms (%d samples beyond p99)\n",
		len(r.appendLat), ms(ap50), ms(ap99), beyond(r.appendLat, 0.99))
	fmt.Printf("slo_qps %.1f achieved at rung %.0f q/s (limit p99 <= %.0fms); %d of %d trials void\n", slo, rung, w.P99LimitMs, sc.voids, sc.trials)
	if lateP99 > lateLimit {
		r.t.problems = append(r.t.problems, fmt.Sprintf("run invalid: the generator sent the fixed-rate queries %.2fms late at p99 (limit %v)", ms(lateP99), lateLimit))
	}
	if 2*sc.voids > sc.trials {
		r.t.problems = append(r.t.problems, fmt.Sprintf("run invalid: the generator fell behind in %d of %d ladder trials", sc.voids, sc.trials))
	}

	// The server's own counts come from every run; a traced run reports
	// them, an untraced one prints them for the record. So do the latency
	// tails that swing with the host's disk and scheduler too much from run
	// to run to carry a bound (see README.md).
	layers := layerMetrics(query, writes, memA, memB, lateP99, w)
	layers["loadgen.void_trials"] = metric{float64(sc.voids), "count"}
	layers["loadgen.query_p90_ms"] = metric{ms(qp90), "ms"}
	layers["loadgen.query_p99_ms"] = metric{ms(qp99), "ms"}
	layers["loadgen.query_samples"] = metric{float64(len(fixedLat)), "count"}
	layers["loadgen.query_beyond_p99"] = metric{float64(beyond(fixedLat, 0.99)), "count"}
	layers["loadgen.append_p50_ms"] = metric{ms(ap50), "ms"}
	layers["loadgen.append_p99_ms"] = metric{ms(ap99), "ms"}
	layers["loadgen.append_samples"] = metric{float64(len(r.appendLat)), "count"}

	var metrics map[string]metric
	if o.traced {
		if err := r.traced(ch, runDir, o, startProbes, layers); err != nil {
			return nil, err
		}
		layers["trace.http_query_p50_us"] = metric{float64(qp50) / 1e3, "us"}
		metrics = layers
	} else {
		counts, _ := json.Marshal(layers) // numbers and strings always encode
		fmt.Printf("layers %s\n", counts)
		metrics = map[string]metric{
			"setup_s":       {setup.Seconds(), "s"},
			"rss_mb":        {rss, "MiB"},
			"query_p50_ms":  {ms(qp50), "ms"},
			"slo_qps":       {slo, "req/s"},
			"success_ratio": {1 - float64(r.t.failed)/float64(r.t.attempted), "ratio"},
		}
	}
	if err := ch.stop(); err != nil {
		r.t.problems = append(r.t.problems, fmt.Sprintf("server shutdown: %v", err))
	}
	for _, p := range r.t.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	return &result{
		Correct:   len(r.t.problems) == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   metrics,
	}, nil
}

// probes queries the probe utterances; a failed probe is recorded and
// leaves a nil answer.
func (r *run) probes() []*queryReply {
	out := make([]*queryReply, len(probeUtterances))
	for i, u := range probeUtterances {
		r.t.attempted++
		q, err := r.ctl.do("query", body(Request{Kind: "query", Text: u}))
		if err != nil {
			r.t.fail("probe %q: %v", u, err)
			continue
		}
		out[i] = q
	}
	return out
}

// warmUp, not measured, asks every pool utterance once (so warm draws hit
// the extraction cache), then runs a short pass that opens the connections.
func (r *run) warmUp() {
	if len(r.p.pool) > 0 {
		reqs := make([]Request, len(r.p.pool))
		for i, u := range r.p.pool {
			reqs[i] = Request{Kind: "query", Text: u}
		}
		r.t.pass(closedLoop(r.qa, reqs, r.w.QueryConns), false)
	}
	r.t.pass(openLoop(r.qa, r.p.warm, r.w.QueryQPS, r.w.QueryConns), false)
}

// phase sends qreqs at qRate on the query connections and, for a workload
// that writes beside its reads, areqs at the fixed append rate on the
// append connections over the same window.
func (r *run) phase(qreqs, areqs []Request, qRate float64, trial bool) (q, a passResult) {
	if r.aa == nil {
		q = openLoop(r.qa, qreqs, qRate, r.w.QueryConns)
		r.t.pass(q, trial)
		return q, a
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a = openLoop(r.aa, areqs, appendQPS, r.w.AppendConns)
	}()
	q = openLoop(r.qa, qreqs, qRate, r.w.QueryConns)
	wg.Wait()
	r.t.pass(q, trial)
	r.t.pass(a, false)
	r.acked += a.Sent - a.Failed
	r.appendLat = append(r.appendLat, a.Lat...)
	return q, a
}

// measure runs the fixed-rate pass and the SLO ladder interleaved: slots
// of one fixed-rate chunk followed by one rung trial of the staircase. It
// returns the fixed-rate chunks merged into one pass per connection kind,
// the median over chunks of each chunk's query p50 (query_p50_ms: a slow
// stretch of the host that spoils fewer than half the chunks does not set
// it), and the staircase, whose result is slo_qps.
func (r *run) measure() (fixedQ, fixedA passResult, p50 time.Duration, sc *staircase) {
	limit := time.Duration(r.w.P99LimitMs * float64(time.Millisecond))
	sc = newStaircase(r.w.Ladder(), ladderStartRung)
	var chunkP50 []time.Duration
	for i := 0; i < r.p.slots; i++ {
		q, a := r.phase(r.p.fixed[i], r.p.fixedApp[i], r.w.QueryQPS, false)
		fixedQ.merge(q)
		fixedA.merge(a)
		chunkP50 = append(chunkP50, quantile(q.Lat, 0.5))
		k := sc.next()
		rate := sc.ladder[k]
		q, a = r.phase(r.p.trial(rate), r.p.trialApp[i], rate, true)
		late := quantile(append(append([]time.Duration(nil), q.Late...), a.Late...), 0.99)
		ok, void := q.meetsSLO(limit), late > lateLimit
		sc.record(ok, void, q.Achieved)
		verdict := fmt.Sprint(ok)
		if void {
			verdict = "void"
		}
		fmt.Printf("rung %2d %6.0f q/s: p99 %7.2fms achieved %6.1f/s unsent %d failed %d late p99 %5.2fms -> %s\n",
			k, rate, ms(quantile(q.Lat, 0.99)), q.Achieved, q.Unsent, q.Failed, ms(late), verdict)
		time.Sleep(settle)
	}
	return fixedQ, fixedA, quantile(chunkP50, 0.5), sc
}

// checkDurability checks that every acknowledged append reached the WAL and
// that no publication or compaction failed.
func (r *run) checkDurability(writes delta) {
	if got := writes.counter("ingest.wal.appends.total"); int(got) != r.acked {
		r.t.fail("acked appends %d != ingest.wal.appends.total delta %.0f", r.acked, got)
	}
	for _, c := range []string{"ingest.publish.errors.total", "ingest.compact.errors.total"} {
		if v := writes.after[promName(c)]; v != 0 {
			r.t.fail("%s = %.0f", c, v)
		}
	}
}

// traced asks the server child for the traced run, checks it and merges its
// metrics into layers.
func (r *run) traced(ch *child, runDir string, o options, startProbes []*queryReply, layers map[string]metric) error {
	out := filepath.Join(runDir, "trace.json")
	if err := ch.send(fmt.Sprintf("trace %s %d %s", r.w.Name, o.seed, out)); err != nil {
		return err
	}
	if _, err := ch.expect("traced", 170*time.Second); err != nil {
		return err
	}
	tr, err := readTraceResult(out)
	if err != nil {
		return err
	}
	for _, p := range tr.Problems {
		r.t.fail("traced run: %s", p)
	}
	// The hand-assembled pipeline must answer the probes exactly as the
	// served client did before any write: then the traced run measures the
	// same program.
	for i, want := range startProbes {
		if want == nil || i >= len(tr.Probes) {
			continue
		}
		var ids []string
		for _, res := range want.Results {
			ids = append(ids, res.ID)
		}
		got := tr.Probes[i]
		if !reflect.DeepEqual(got.Tags, want.Tags) || !reflect.DeepEqual(got.IDs, ids) {
			r.t.fail("traced pipeline answers %q with tags %v ids %v; server said %v %v",
				probeUtterances[i], got.Tags, got.IDs, want.Tags, ids)
		}
	}
	for k, v := range tr.Metrics {
		layers[k] = v
	}
	// The spans outlive the run directory.
	return copyFile(filepath.Join(runDir, "trace.spans.jsonl"), filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", r.w.Name, o.seed)))
}

// readServer scrapes /metrics and the runtime header of the heap profile.
func readServer(a *api) (scrape, memStats, error) {
	code, text, err := a.get("/metrics")
	if err != nil || code != 200 {
		return nil, memStats{}, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	s, err := parseMetrics(text)
	if err != nil {
		return nil, memStats{}, err
	}
	code, text, err = a.get("/debug/pprof/heap?debug=1")
	if err != nil || code != 200 {
		return nil, memStats{}, fmt.Errorf("GET /debug/pprof/heap: %d %v", code, err)
	}
	m, err := parseMemStats(text)
	return s, m, err
}

// peakRSS reads the child's peak resident set (VmHWM) in MiB from outside
// the process.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// ms converts to milliseconds; a missed request reads as a huge finite
// value, so JSON can carry it.
func ms(d time.Duration) float64 {
	if d == missed {
		return math.MaxFloat32
	}
	return float64(d) / 1e6
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}
