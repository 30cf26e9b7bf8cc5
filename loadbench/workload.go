package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Workload is one traffic mix. Its offered rates, rate ladder and p99 limit
// are constants of the workload, read from workloads.json: no run calibrates
// them, so a commit and its parent always face the same load.
type Workload struct {
	Name string `json:"-"`

	Pool      int     `json:"pool"`       // warm utterance pool size (0: every query is new)
	WarmShare float64 `json:"warm_share"` // share of queries drawn from the pool

	QueryConns  int     `json:"query_conns"`  // connections sending /v1/query
	QueryQPS    float64 `json:"query_qps"`    // fixed query rate of the latency pass
	AppendConns int     `json:"append_conns"` // connections sending /v1/append beside the queries (0: appends run in a write-only tail)

	// SLO ladder: rung k offers LadderStart·ladderRatio^k queries/s.
	LadderStart float64 `json:"ladder_start_qps"`
	P99LimitMs  float64 `json:"p99_limit_ms"`
}

// Constants every workload shares.
const (
	slotShare   = 0.3  // share of utterances naming a cuisine or city
	offLexicon  = 0.15 // share of phrases from outside the lexicon
	zipfS       = 1.1  // pool draws: rank k has probability ∝ (zipfV+k)^-zipfS
	zipfV       = 50   // the offset flattens the head, so no handful of utterances sets the mix
	appendQPS   = 80   // fixed append rate, beside queries or in the tail
	ladderRatio = 1.05 // rung spacing: finer than any bound on slo_qps
	ladderRungs = 40
	// The staircase starts at this rung, near each workload's knee on a
	// quiet host; the ladder reaches from about 0.4 to 2.8 times of it.
	ladderStartRung = 18
)

//go:embed workloads.json
var workloadsJSON []byte

func loadWorkloads() (map[string]Workload, error) {
	var m map[string]Workload
	if err := json.Unmarshal(workloadsJSON, &m); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	for name, w := range m {
		w.Name = name
		m[name] = w
	}
	return m, nil
}

func workloadNames(m map[string]Workload) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Ladder returns the fixed rate ladder in queries/s, rounded to whole rates.
func (w Workload) Ladder() []float64 {
	out := make([]float64, ladderRungs)
	for k := range out {
		out[k] = math.Round(w.LadderStart * math.Pow(ladderRatio, float64(k)))
	}
	return out
}

// ReadOnly reports whether the query phases run without concurrent writes.
func (w Workload) ReadOnly() bool { return w.AppendConns == 0 }
